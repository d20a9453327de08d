package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// fingerprint describes the build and the host a run measured, so a
// number can be matched to the code and machine that produced it.
type fingerprint struct {
	goVersion  string
	revision   string
	modified   bool
	stale      []string
	gomaxprocs int
	nproc      int
	cpu        string
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		goVersion:  runtime.Version(),
		revision:   "unknown",
		gomaxprocs: runtime.GOMAXPROCS(0),
		nproc:      runtime.NumCPU(),
		cpu:        cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.revision = s.Value
			case "vcs.modified":
				fp.modified = s.Value == "true"
			}
		}
	}
	if head := gitHead(); head != "" && fp.revision != "unknown" && head != fp.revision {
		fp.stale = append(fp.stale, fmt.Sprintf("built at %.12s, checkout at %.12s", fp.revision, head))
	}
	if src := newestSource(); !src.t.IsZero() {
		if exe, err := os.Executable(); err == nil {
			if st, err := os.Stat(exe); err == nil && src.t.After(st.ModTime()) {
				fp.stale = append(fp.stale, src.path+" is newer than the binary")
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	state := "clean"
	if fp.modified {
		state = "DIRTY"
	}
	if fp.revision == "unknown" {
		state = "no vcs stamp"
	}
	s := fmt.Sprintf("# env: %s rev=%s (%s) GOMAXPROCS=%d nproc=%d cpu=%q",
		fp.goVersion, fp.revision, state, fp.gomaxprocs, fp.nproc, fp.cpu)
	for _, why := range fp.stale {
		s += "\n# env: STALE BUILD: " + why
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitHead resolves the checkout's HEAD commit from .git without running
// git; it returns "" outside a git checkout.
func gitHead() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

type sourceFile struct {
	path string
	t    time.Time
}

// newestSource finds the most recently modified Go source the benchmark
// binary is built from.
func newestSource() sourceFile {
	var newest sourceFile
	for _, dir := range []string{"internal", "perfbench"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			if info, err := d.Info(); err == nil && info.ModTime().After(newest.t) {
				newest = sourceFile{path, info.ModTime()}
			}
			return nil
		})
	}
	return newest
}
