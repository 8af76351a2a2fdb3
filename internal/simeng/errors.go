package simeng

import (
	"context"
	"errors"
	"fmt"

	"isacmp/internal/mem"
)

// The failure taxonomy. Every way a matrix cell can die is mapped onto
// one of these sentinels so that schedulers, retry policies, report
// writers and the manifest `failures` block can switch on the reason
// without parsing messages. errors.Is works through SimError.
var (
	// ErrDecode marks an instruction word the front end rejected
	// (predecode failures, unallocated encodings, injected decode
	// faults).
	ErrDecode = errors.New("decode error")
	// ErrMemFault marks an out-of-range or misaligned data access
	// (mem.AccessError and injected memory faults).
	ErrMemFault = errors.New("memory fault")
	// ErrBudget marks a run that exceeded its MaxInstructions
	// watchdog budget.
	ErrBudget = errors.New("instruction budget exceeded")
	// ErrDeadline marks a run reaped by its wall-clock deadline
	// (context timeout or cancellation).
	ErrDeadline = errors.New("cell deadline exceeded")
	// ErrPanic marks a panic recovered from the exec, decode or sink
	// layers and converted into an error.
	ErrPanic = errors.New("panic")
	// ErrSetup marks a failure before simulation started (compile or
	// load errors); setup failures are cell failures too, so the rest
	// of a matrix can keep going.
	ErrSetup = errors.New("setup error")
	// ErrIO marks a durability-layer disk failure (a cache entry or
	// manifest that cannot be written: ENOSPC, fsync error, a path
	// that is not a directory). I/O failures are reported and
	// survive-able: a cell whose cache write fails still returns its
	// computed result; only its durability is lost.
	ErrIO = errors.New("i/o error")
)

// Reason returns the short lower-case tag of a taxonomy sentinel, the
// form the manifest `failures` block and FAILED(<reason>) table rows
// use. Unknown errors map to "unknown".
func Reason(err error) string {
	switch {
	case errors.Is(err, ErrDecode):
		return "decode"
	case errors.Is(err, ErrMemFault):
		return "mem-fault"
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrPanic):
		return "panic"
	case errors.Is(err, ErrSetup):
		return "setup"
	case errors.Is(err, ErrIO):
		return "io"
	default:
		return "unknown"
	}
}

// SimError is the structured failure record the engine attaches to
// every error that escapes a run: which taxonomy kind it is, where the
// machine was (PC), how far it got (retired instructions) and, once a
// scheduler owns it, which matrix cell it belongs to. errors.Is
// matches both the Kind sentinel and the wrapped cause.
type SimError struct {
	// Kind is one of the taxonomy sentinels above.
	Kind error
	// Workload and Target identify the matrix cell; the scheduler
	// fills them in via WithCell.
	Workload string
	Target   string
	// PC is the program counter at the point of failure (0 when the
	// failure happened outside simulation, e.g. setup).
	PC uint64
	// Retired is the number of instructions retired before the
	// failure.
	Retired uint64
	// Err is the underlying cause.
	Err error
}

// Error renders the full context: cell, kind, position and cause.
func (e *SimError) Error() string {
	cell := ""
	if e.Workload != "" || e.Target != "" {
		cell = fmt.Sprintf("%s/%s: ", e.Workload, e.Target)
	}
	if e.Err != nil && !errors.Is(e.Kind, e.Err) {
		return fmt.Sprintf("simeng: %s%s at pc=%#x after %d instructions: %v",
			cell, Reason(e.Kind), e.PC, e.Retired, e.Err)
	}
	return fmt.Sprintf("simeng: %s%s at pc=%#x after %d instructions",
		cell, Reason(e.Kind), e.PC, e.Retired)
}

// Unwrap exposes the underlying cause chain.
func (e *SimError) Unwrap() error { return e.Err }

// Is matches the taxonomy sentinel in addition to the cause chain, so
// errors.Is(err, simeng.ErrDecode) holds for a classified decode
// failure whatever the concrete cause was.
func (e *SimError) Is(target error) bool { return e.Kind == target }

// WithCell returns a copy of the error carrying the cell identity; a
// non-SimError cause is classified first.
func WithCell(err error, workload, target string) *SimError {
	se := AsSimError(err)
	se.Workload, se.Target = workload, target
	return se
}

// decodeFaulter is the structural marker the a64 and rv64 DecodeError
// types implement; checking it here avoids an import in either
// direction.
type decodeFaulter interface{ DecodeFault() }

// Classify maps an arbitrary error onto a taxonomy sentinel: typed
// decode errors, memory access errors, context deadlines and already-
// classified SimErrors are recognised; anything else — compile and
// load failures being the common case — is ErrSetup.
func Classify(err error) error {
	var se *SimError
	if errors.As(err, &se) {
		return se.Kind
	}
	var df decodeFaulter
	if errors.As(err, &df) {
		return ErrDecode
	}
	var ae *mem.AccessError
	if errors.As(err, &ae) {
		return ErrMemFault
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ErrDeadline
	case errors.Is(err, ErrDecode):
		return ErrDecode
	case errors.Is(err, ErrMemFault):
		return ErrMemFault
	case errors.Is(err, ErrBudget):
		return ErrBudget
	case errors.Is(err, ErrDeadline):
		return ErrDeadline
	case errors.Is(err, ErrPanic):
		return ErrPanic
	case errors.Is(err, ErrSetup):
		return ErrSetup
	case errors.Is(err, ErrIO):
		return ErrIO
	}
	return ErrSetup
}

// AsSimError returns err as a *SimError, classifying and wrapping it
// first when necessary.
func AsSimError(err error) *SimError {
	var se *SimError
	if errors.As(err, &se) {
		return se
	}
	return &SimError{Kind: Classify(err), Err: err}
}

// Guard runs fn, converting a panic in any layer below it (exec,
// decode, memory, analysis sinks) into an ErrPanic-kind SimError
// instead of killing the process. The worker pools run every matrix
// cell under a Guard.
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SimError{Kind: ErrPanic, Err: fmt.Errorf("recovered: %v", r)}
		}
	}()
	return fn()
}
