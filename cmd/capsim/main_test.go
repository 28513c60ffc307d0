package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capred"
)

// TestEveryExperimentRuns drives each registered experiment end to end at
// a tiny budget: the registry, the drivers and the table renderers must
// all hold together.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	cfg := capred.ExperimentConfig{EventsPerTrace: 4000}
	for _, e := range capred.Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			r := e.Run(cfg)
			out := r.Table().String()
			if len(out) == 0 {
				t.Fatal("empty table")
			}
			if !strings.Contains(out, "\n") {
				t.Fatalf("table has no rows:\n%s", out)
			}
			if fails := r.Failed(); len(fails) != 0 {
				t.Fatalf("clean run reported failures: %v", fails)
			}
		})
	}
}

func TestRegistryDescriptions(t *testing.T) {
	for _, e := range capred.Experiments() {
		if e.Desc == "" {
			t.Errorf("experiment %s has no description", e.Name)
		}
		if _, ok := capred.ExperimentByName(e.Name); !ok {
			t.Errorf("experiment %s not resolvable by name", e.Name)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-version exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "capsim ") {
		t.Fatalf("-version output %q", stdout.String())
	}
}

// TestCacheBudgetZeroDisablesCache pins -cache-budget 0 to mean
// "disabled", as it does for capserve: the run regenerates its traces
// live, so -cache-stats has no cache to report on, and the table is the
// one a cached run prints.
func TestCacheBudgetZeroDisablesCache(t *testing.T) {
	sweep := func(budget string) (table, diag string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := []string{"-experiment", "fig9", "-events", "4000", "-cache-budget", budget, "-cache-stats"}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("-cache-budget %s: exit %d: %s", budget, code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	live, liveDiag := sweep("0")
	if strings.Contains(liveDiag, "replay cache") {
		t.Fatalf("-cache-budget 0 printed cache stats:\n%s", liveDiag)
	}
	cached, cachedDiag := sweep("64")
	if !strings.Contains(cachedDiag, "replay cache") {
		t.Fatalf("-cache-budget 64 -cache-stats printed no cache stats:\n%s", cachedDiag)
	}
	if live != cached {
		t.Fatalf("live and cached tables differ:\nlive:\n%s\ncached:\n%s", live, cached)
	}
}

// TestCPUProfileFlag checks -cpuprofile writes a non-empty,
// gzip-framed pprof profile covering the run.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout, stderr bytes.Buffer
	args := []string{"-experiment", "fig9", "-events", "4000", "-cpuprofile", path}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("profile is %d bytes, not gzip-framed", len(raw))
	}
	if !strings.Contains(stdout.String(), "\n") {
		t.Fatalf("no table printed alongside the profile:\n%s", stdout.String())
	}
}

func TestCPUProfileBadPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-experiment", "fig9", "-events", "4000", "-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.pprof")}
	if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
		t.Fatalf("unwritable -cpuprofile: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-cpuprofile") {
		t.Fatalf("stderr does not name the flag: %s", stderr.String())
	}
}
