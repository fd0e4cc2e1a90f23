package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// repro: each op is one run of the built cmd/repro binary with default
// flags, one child at a time, in a closed loop.

// reproChild runs the repro binary once and returns its stdout and the
// child's max RSS in MiB.
func reproChild(bin string, args ...string) ([]byte, float64, error) {
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("repro %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports kB
	}
	return out.Bytes(), rss, nil
}

// section returns the body of one "==== name — ... ====" section of repro
// output (without the banner and the blank line println adds).
func section(out, name string) (string, bool) {
	start := strings.Index(out, "==== "+name+" ")
	if start < 0 {
		return "", false
	}
	body := out[start:]
	nl := strings.IndexByte(body, '\n')
	if nl < 0 {
		return "", false
	}
	body = body[nl+1:]
	if end := strings.Index(body, "\n==== "); end >= 0 {
		body = body[:end+1]
	}
	return strings.TrimSuffix(body, "\n"), true
}

// checkGoldens compares the table1 and matrix sections with the
// repository's committed goldens.
func checkGoldens(root, out string) error {
	for _, g := range []struct{ sec, file string }{
		{"table1", "table1.txt"},
		{"matrix", "matrix.txt"},
	} {
		want, err := os.ReadFile(filepath.Join(root, "testdata", "goldens", g.file))
		if err != nil {
			return err
		}
		got, ok := section(out, g.sec)
		if !ok {
			return fmt.Errorf("%w: repro output has no %s section", errCheck, g.sec)
		}
		if strings.ReplaceAll(string(want), "\r\n", "\n") != got {
			return fmt.Errorf("%w: %s section differs from testdata/goldens/%s", errCheck, g.sec, g.file)
		}
	}
	return nil
}

func runRepro(e env) (*timed, error) {
	bin := filepath.Join(e.bindir, "repro")
	t := &timed{}
	// Warm-up: the first full run is the byte reference every op must
	// reproduce; its table1 and matrix sections must equal the goldens.
	ref, _, err := reproChild(bin)
	if err != nil {
		return nil, err
	}
	if err := checkGoldens(e.root, string(ref)); err != nil {
		return nil, err
	}
	if _, _, err := reproChild(bin); err != nil {
		return nil, err
	}
	err = closedLoop(e.seconds, ownCPUErr, func(int) error {
		out, rss, err := reproChild(bin)
		if err != nil {
			return err
		}
		if rss > t.rssMB {
			t.rssMB = rss
		}
		if !bytes.Equal(out, ref) {
			return fmt.Errorf("%w: stdout differs from the warm-up run", errCheck)
		}
		return nil
	}, func(int) error {
		// Set-up: what every run pays before its first experiment —
		// process start, BuildAll, hub start and PushAll — timed as
		// `-only table1`.
		out, _, err := reproChild(bin, "-only", "table1")
		if err != nil {
			return err
		}
		return checkTableOnly(e.root, string(out))
	}, t)
	t.rssWhat = "largest child max-RSS"
	return t, err
}

func checkTableOnly(root, out string) error {
	want, err := os.ReadFile(filepath.Join(root, "testdata", "goldens", "table1.txt"))
	if err != nil {
		return err
	}
	got, ok := section(out, "table1")
	if !ok || strings.ReplaceAll(string(want), "\r\n", "\n") != got {
		return fmt.Errorf("%w: repro -only table1 differs from testdata/goldens/table1.txt", errCheck)
	}
	return nil
}

// reproWall times one child run (used by the traced run's A/B).
func reproWall(bin string, args ...string) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := reproChild(bin, args...)
	return time.Since(t0), err
}
