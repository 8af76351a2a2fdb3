// Package simeng is the simulation engine: it drives an architectural
// machine (AArch64 or RV64G) and streams one execution record per
// retired instruction to any number of analysis sinks. It is the Go
// counterpart of the SimEng infrastructure the paper builds on.
//
// Three core models are provided:
//
//   - EmulationCore: the atomic model the paper uses for all four
//     experiments — every instruction executes to completion in a
//     single cycle, so cycles == instructions.
//   - InOrderModel: a dual-issue in-order pipeline in the spirit of
//     the Cortex-A55 / SiFive-7 cores the paper's -mtune flags target.
//   - OoOModel: a superscalar out-of-order core with a finite reorder
//     buffer, the "future work" model of the paper's section 8.
//
// The timing models are trace-driven: they consume the architectural
// event stream and account cycles, which is exactly the level of
// modelling the paper's analyses need (dependencies, latencies and
// structural limits; no wrong-path execution).
package simeng

import (
	"context"
	"fmt"
	"time"

	"isacmp/internal/isa"
)

// Machine is the architectural simulator interface implemented by
// rv64.Machine and a64.Machine.
type Machine interface {
	// Step retires one instruction, filling ev; done is true after the
	// program has exited.
	Step(ev *isa.Event) (done bool, err error)
	// StepN retires up to len(evs) instructions in one dynamic
	// dispatch, filling evs[:n] in retirement order. done and err
	// describe the state after the n filled events; on an error the
	// first n events are valid, and EmulationCore.Run delivers them to
	// the sink before it surfaces the error.
	StepN(evs []isa.Event) (n int, done bool, err error)
	// PC returns the current program counter.
	PC() uint64
	// Arch identifies the instruction set.
	Arch() isa.Arch
}

// Stats is the shared base every core model reports: retired
// instructions and cycles. Richer models embed it in PipelineStats.
type Stats struct {
	// Instructions is the number of retired instructions (the paper's
	// path length).
	Instructions uint64 `json:"instructions"`
	// Cycles is the core model's cycle count; for the emulation core
	// it equals Instructions.
	Cycles uint64 `json:"cycles"`
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// PipelineStats extends the shared base with the microarchitectural
// counters the core models track. Every core fills the base; fields
// that do not apply to a model stay zero, so consumers (the manifest
// writer, the CLIs) need no per-core switch.
type PipelineStats struct {
	Stats
	// Model names the core model: "emulation", "inorder" or "ooo".
	Model string `json:"model"`
	// SrcStallCycles is the total cycles instructions waited on
	// register or memory sources before issuing.
	SrcStallCycles uint64 `json:"src_stall_cycles,omitempty"`
	// BranchFlushes counts pipeline redirects paid for mispredicted
	// branches (in-order model only; the OoO model assumes perfect
	// prediction).
	BranchFlushes uint64 `json:"branch_flushes,omitempty"`
	// ROBFullStallCycles is the total cycles dispatch waited for a
	// reorder-buffer slot (OoO model only).
	ROBFullStallCycles uint64 `json:"rob_full_stall_cycles,omitempty"`
	// ROBFullEvents counts dispatches that found the ROB full.
	ROBFullEvents uint64 `json:"rob_full_events,omitempty"`
	// CacheHits/CacheMisses copy the attached DCache counters.
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
}

// StatsSource is implemented by every core model; it lets telemetry
// and the manifest writer treat cores uniformly.
type StatsSource interface {
	PipelineStats() PipelineStats
}

// PipelineObserver receives per-instruction pipeline timing from a
// timing model: the cycle the instruction entered the pipe (dispatch),
// the cycle it began executing (issue) and the cycle its result was
// ready (complete). telemetry.PipelineTrace implements it, and is also
// a sink for the emulation core's stream.
type PipelineObserver interface {
	ObserveRetire(ev *isa.Event, dispatch, issue, complete uint64)
}

// EmulationCore executes instructions atomically, one per cycle,
// streaming each retirement to the sink. MaxInstructions guards
// against runaway programs (0 means no limit).
type EmulationCore struct {
	// MaxInstructions aborts the run when exceeded; 0 means unlimited.
	MaxInstructions uint64
	// Ctx, when non-nil, is the run's wall-clock watchdog: it is
	// polled once per batch and the run stops with an ErrDeadline-kind
	// SimError once it is done. A nil context costs nothing.
	Ctx context.Context
	// ProfileStages, when set, splits the run loop's wall time into
	// Stages: StepN dispatch (simulate) versus sink delivery (deliver).
	// Two clock reads per stepBatch-sized batch, so the cost amortizes
	// to fractions of a nanosecond per event.
	ProfileStages bool
	// Stages holds the accumulated split of the most recent Run when
	// ProfileStages is set.
	Stages StageNs

	last Stats
	// batch is the reused StepN buffer; allocated on the first run, so
	// steady-state execution performs no allocation.
	batch []isa.Event
}

// StageNs is the run loop's wall time split by stage, in
// nanoseconds: time inside StepN (architectural simulation) versus
// time handing events to the sink (delivery). The split is what the
// span profiler records as "simulate" and "deliver" spans per cell.
type StageNs struct {
	SimulateNs int64
	DeliverNs  int64
}

// stepBatch is the batch size of the run loop, which polls the
// watchdog context once per batch. At simulated rates of tens of MIPS
// that bounds deadline overshoot to well under a millisecond, and
// per-batch costs (dispatch, timing, channel hand-off in the fan-out
// engine) amortize to fractions of a nanosecond per event while a
// batch of events (4096 of 56 bytes, 224 KiB) stays cache-resident.
const stepBatch = 4096

// Run drives m to completion. sink may be nil to just count. One
// StepN dispatch retires up to stepBatch instructions, the sink
// consumes each batch in one Events call, and the watchdog poll runs
// once per batch. Events retired before an error are delivered first,
// the instruction budget fires after the event that reaches it (the
// batch length is clamped to the remaining budget), and the done-event
// is never delivered. Panics escaping the machine or the sink are
// converted into ErrPanic-kind SimErrors carrying the PC and retired
// count, so one bad decode or analysis path cannot kill a whole
// matrix run. Each batch is counted before it is delivered, so a sink
// that panics reports the machine's state when delivery stopped: the
// batch's end and the PC after it.
func (c *EmulationCore) Run(m Machine, sink isa.Sink) (stats Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.last = stats
			err = &SimError{
				Kind:    ErrPanic,
				PC:      m.PC(),
				Retired: stats.Instructions,
				Err:     fmt.Errorf("recovered: %v", r),
			}
		}
	}()
	if c.ProfileStages {
		c.Stages = StageNs{}
	}
	if c.batch == nil {
		c.batch = make([]isa.Event, stepBatch)
	}
	max := c.MaxInstructions
	ctx := c.Ctx
	prof := c.ProfileStages
	var stageClock time.Time
	for {
		buf := c.batch
		if max != 0 {
			if left := max - stats.Instructions; left < uint64(len(buf)) {
				buf = buf[:left]
			}
		}
		if prof {
			stageClock = time.Now()
		}
		n, done, err := m.StepN(buf)
		if prof {
			c.Stages.SimulateNs += time.Since(stageClock).Nanoseconds()
		}
		if n > 0 {
			if prof {
				stageClock = time.Now()
			}
			// Count the batch, then deliver it: a sink that panics
			// mid-batch reports the machine's state when delivery
			// stopped.
			stats.Instructions += uint64(n)
			isa.DeliverBatch(sink, buf[:n])
			if prof {
				c.Stages.DeliverNs += time.Since(stageClock).Nanoseconds()
			}
		}
		if err != nil {
			c.last = stats
			return stats, &SimError{
				Kind:    Classify(err),
				PC:      m.PC(),
				Retired: stats.Instructions,
				Err:     err,
			}
		}
		if done {
			stats.Cycles = stats.Instructions
			c.last = stats
			return stats, nil
		}
		if max != 0 && stats.Instructions >= max {
			c.last = stats
			return stats, &SimError{
				Kind:    ErrBudget,
				PC:      m.PC(),
				Retired: stats.Instructions,
				Err:     fmt.Errorf("instruction limit %d exceeded", max),
			}
		}
		if ctx != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				c.last = stats
				return stats, &SimError{
					Kind:    ErrDeadline,
					PC:      m.PC(),
					Retired: stats.Instructions,
					Err:     ctxErr,
				}
			}
		}
	}
}

// PipelineStats reports the most recent run (one instruction per
// cycle, no stalls by construction).
func (c *EmulationCore) PipelineStats() PipelineStats {
	return PipelineStats{Stats: c.last, Model: "emulation"}
}

// LatencyModel maps each instruction group to an execution latency in
// cycles. It is the Go analogue of the latency fields in SimEng's YAML
// core descriptions.
type LatencyModel [isa.NumGroups]uint32

// Latency returns the latency of group g.
func (l *LatencyModel) Latency(g isa.Group) uint32 { return l[g] }

// TX2Latencies models Marvell ThunderX2-style execution latencies, the
// "canonical superscalar RISC" model the paper scales critical paths
// with (section 5.1): single-cycle simple integer work, mid-single-
// digit multiplies and FP arithmetic, and long dividers.
func TX2Latencies() *LatencyModel {
	return &LatencyModel{
		isa.GroupIntSimple: 1,
		isa.GroupIntMul:    5,
		isa.GroupIntDiv:    23,
		isa.GroupLoad:      4,
		isa.GroupStore:     1,
		isa.GroupBranch:    1,
		isa.GroupFPSimple:  5,
		isa.GroupFPAdd:     6,
		isa.GroupFPMul:     6,
		isa.GroupFPFMA:     6,
		isa.GroupFPDiv:     23,
		isa.GroupFPSqrt:    23,
		isa.GroupFPCvt:     7,
		isa.GroupSystem:    1,
	}
}

// A55Latencies models a small dual-issue in-order core (Cortex-A55 /
// SiFive-7 class, the cores the paper's -mtune flags select).
func A55Latencies() *LatencyModel {
	return &LatencyModel{
		isa.GroupIntSimple: 1,
		isa.GroupIntMul:    3,
		isa.GroupIntDiv:    12,
		isa.GroupLoad:      3,
		isa.GroupStore:     1,
		isa.GroupBranch:    1,
		isa.GroupFPSimple:  2,
		isa.GroupFPAdd:     4,
		isa.GroupFPMul:     4,
		isa.GroupFPFMA:     4,
		isa.GroupFPDiv:     19,
		isa.GroupFPSqrt:    22,
		isa.GroupFPCvt:     4,
		isa.GroupSystem:    1,
	}
}

// UnitLatencies gives every group a latency of one cycle; with it the
// scaled critical path degenerates to the plain critical path.
func UnitLatencies() *LatencyModel {
	var l LatencyModel
	for g := range l {
		l[g] = 1
	}
	return &l
}
