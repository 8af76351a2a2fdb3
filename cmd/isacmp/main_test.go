package main

import (
	"reflect"
	"testing"

	"isacmp"
	"isacmp/internal/report"
	"isacmp/internal/simeng"
)

// TestExperimentSelection pins what each matrix subcommand runs: its
// analyses, its target columns, and that every subcommand keeps the
// shared knobs of the base experiment — the -latency-file model that
// Table 2 is printed with among them (scaledcp, all and artifacts
// print it).
func TestExperimentSelection(t *testing.T) {
	lat := simeng.TX2Latencies()
	base := report.Experiment{Latencies: lat, WindowStride: 3, Parallel: 2}
	all := isacmp.Targets()
	gcc12 := []isacmp.Target{{Arch: isacmp.AArch64, Flavor: isacmp.GCC12}, {Arch: isacmp.RV64, Flavor: isacmp.GCC12}}
	rv9 := []isacmp.Target{{Arch: isacmp.RV64, Flavor: isacmp.GCC9}}
	cases := []struct {
		cmd, target          string
		pl, cp, sc, win, mix bool
		core                 string
		targets              []isacmp.Target
	}{
		{cmd: "pathlen", pl: true, targets: all},
		{cmd: "critpath", cp: true, targets: all},
		{cmd: "scaledcp", sc: true, targets: all},
		{cmd: "windowcp", win: true, targets: gcc12},
		{cmd: "mix", mix: true, targets: all},
		{cmd: "all", pl: true, cp: true, sc: true, win: true, targets: all},
		{cmd: "artifacts", pl: true, cp: true, sc: true, win: true, targets: all},
		{cmd: "run", target: "all", mix: true, core: "ooo", targets: all},
		{cmd: "run", target: "rv64-gcc9", mix: true, core: "ooo", targets: rv9},
	}
	for _, c := range cases {
		t.Run(c.cmd+"/"+c.target, func(t *testing.T) {
			target := c.target
			if target == "" {
				target = "aarch64-gcc12" // the -target default, which only run reads
			}
			ex, ok, err := experiment(c.cmd, base, "ooo", true, target)
			if err != nil || !ok {
				t.Fatalf("experiment(%q) = ok %t, err %v", c.cmd, ok, err)
			}
			got := [5]bool{ex.PathLength, ex.CritPath, ex.Scaled, ex.Windowed, ex.Mix}
			if want := [5]bool{c.pl, c.cp, c.sc, c.win, c.mix}; got != want {
				t.Errorf("analyses (pathlen, critpath, scaled, windowed, mix) = %v, want %v", got, want)
			}
			if !reflect.DeepEqual(ex.Targets(), c.targets) {
				t.Errorf("targets = %v, want %v", ex.Targets(), c.targets)
			}
			if ex.Latencies != lat {
				t.Errorf("latencies are not the -latency-file model")
			}
			if ex.WindowStride != 3 || ex.Parallel != 2 {
				t.Errorf("shared knobs lost: stride %d, parallel %d", ex.WindowStride, ex.Parallel)
			}
			if ex.Core != c.core || ex.Cache != (c.core != "") {
				t.Errorf("core %q cache %t, want %q and %t", ex.Core, ex.Cache, c.core, c.core != "")
			}
		})
	}
	if _, ok, _ := experiment("disasm", base, "", false, "all"); ok {
		t.Error("disasm runs no matrix")
	}
	if _, _, err := experiment("run", base, "", false, "mips-gcc12"); err == nil {
		t.Error("run accepted an unknown target")
	}
}
