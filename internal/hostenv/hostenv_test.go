package hostenv

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pkgmgr"
)

func TestProfilesMatchPaperMatrix(t *testing.T) {
	hs := Profiles()
	if len(hs) != 7 {
		t.Fatalf("profiles = %d, want 7", len(hs))
	}
	if hs[0].Name != BuildHost {
		t.Errorf("first profile = %q, want build host", hs[0].Name)
	}
	if hs[0].CPUs != 20 || hs[0].MemGB != 256 {
		t.Errorf("build host hardware = %d cpus / %d GB, want 20/256", hs[0].CPUs, hs[0].MemGB)
	}
	var cloud *Host
	for _, h := range hs {
		if h.Cloud {
			cloud = h
		}
	}
	if cloud == nil || cloud.CPUs != 8 || cloud.MemGB != 30 {
		t.Errorf("GCP profile wrong: %+v", cloud)
	}
}

func TestByName(t *testing.T) {
	h, err := ByName(Debian96)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.OS, "Debian") {
		t.Errorf("OS = %q", h.OS)
	}
	if _, err := ByName("amiga-os"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestByNameMatchesProfiles: ByName builds only the requested profile,
// and the instance it returns equals the matching Profiles() entry —
// hardware, repository contents and filesystem — for every name, which
// Names lists in Profiles() order.
func TestByNameMatchesProfiles(t *testing.T) {
	all := Profiles()
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("Names() = %d names, Profiles() = %d hosts", len(names), len(all))
	}
	for i, want := range all {
		if names[i] != want.Name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], want.Name)
		}
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) differs from its Profiles() entry", want.Name)
		}
	}
}

func TestNativeInstallMatrix(t *testing.T) {
	// The crux of the paper's motivation: native installs succeed on the
	// older platforms and fail on the newer ones.
	cases := []struct {
		host string
		tool string
		ok   bool
	}{
		{BuildHost, pkgmgr.PkgPEPAPlugin, true},
		{CentOS76, pkgmgr.PkgPEPAPlugin, true},
		{Ubuntu1604, pkgmgr.PkgPEPAPlugin, true},
		{Debian96, pkgmgr.PkgPEPAPlugin, true},
		{Ubuntu1804, pkgmgr.PkgPEPAPlugin, false}, // Eclipse 4.2/4.4 dropped
		{Mint191, pkgmgr.PkgPEPAPlugin, false},

		{BuildHost, pkgmgr.PkgBioPEPA, true},
		{Debian96, pkgmgr.PkgBioPEPA, false}, // JDK 6/7 dropped
		{Ubuntu1804, pkgmgr.PkgBioPEPA, false},

		{BuildHost, pkgmgr.PkgGPAnalyser, true},
		{Ubuntu1804, pkgmgr.PkgGPAnalyser, false}, // vis-toolkit 2.3 dropped
		{GCPInstance, pkgmgr.PkgGPAnalyser, true},
	}
	for _, c := range cases {
		h, err := ByName(c.host)
		if err != nil {
			t.Fatal(err)
		}
		err = h.NativeInstall(c.tool)
		if c.ok && err != nil {
			t.Errorf("%s on %s: unexpected failure: %v", c.tool, c.host, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s on %s: install succeeded, want dependency failure", c.tool, c.host)
		}
	}
}

func TestEveryHostCanInstallSingularity(t *testing.T) {
	// The paper's premise: the only host requirement is the container
	// runtime, and every platform can satisfy it.
	for _, h := range Profiles() {
		if err := h.InstallSingularity(); err != nil {
			t.Errorf("%s cannot install singularity: %v", h.Name, err)
		}
		if !h.HasSingularity() {
			t.Errorf("%s: singularity binary missing after install", h.Name)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	h, _ := ByName(BuildHost)
	c := h.Clone()
	c.FS.WriteFile("/etc/marker", []byte("x"), 0o644)
	if h.FS.Exists("/etc/marker") {
		t.Error("clone shares filesystem with original")
	}
}

func TestBaseImages(t *testing.T) {
	bases := BaseImages()
	if _, ok := bases["centos:7.4"]; !ok {
		t.Fatal("centos:7.4 base missing")
	}
	fs := bases["centos:7.4"].FS()
	if !fs.Exists("/etc/os-release") {
		t.Error("base image lacks os-release")
	}
	// The base repo must be able to host the full PEPA toolchain — the
	// build-time guarantee containers rely on.
	for _, tool := range []string{pkgmgr.PkgPEPAPlugin, pkgmgr.PkgBioPEPA, pkgmgr.PkgGPAnalyser} {
		if _, err := pkgmgr.Resolve(bases["centos:7.4"].Repo, []pkgmgr.Dependency{pkgmgr.Any(tool)}); err != nil {
			t.Errorf("base repo cannot resolve %s: %v", tool, err)
		}
	}
	names := BaseImageNames()
	if len(names) < 2 {
		t.Errorf("base image names = %v", names)
	}
}

func TestFreshProfilesEachCall(t *testing.T) {
	a, _ := ByName(CentOS76)
	a.FS.WriteFile("/etc/dirty", []byte("x"), 0o644)
	b, _ := ByName(CentOS76)
	if b.FS.Exists("/etc/dirty") {
		t.Error("profiles share state across ByName calls")
	}
}
