package cc

import (
	"testing"

	"isacmp/internal/ir"
)

func TestMatchStream(t *testing.T) {
	arr := &ir.Array{Name: "a", Elem: ir.F64, Len: 8}
	lv := ir.NewVar("i", ir.I64)
	inv := ir.NewVar("row", ir.I64)
	other := ir.NewVar("j", ir.I64)

	cases := []struct {
		idx     ir.Expr
		ok      bool
		invVar  *ir.Var
		invCons int64
	}{
		{ir.V(lv), true, nil, 0},
		{ir.AddE(ir.CI(3), ir.V(lv)), true, nil, 3},
		{ir.AddE(ir.V(lv), ir.CI(-2)), true, nil, -2},
		{ir.AddE(ir.V(inv), ir.V(lv)), true, inv, 0},
		{ir.AddE(ir.V(lv), ir.V(inv)), true, inv, 0},
		{ir.V(other), false, nil, 0},
		{ir.AddE(ir.V(lv), ir.V(lv)), false, nil, 0}, // 2*i is not unit stride
		{ir.SubE(ir.V(lv), ir.CI(1)), false, nil, 0}, // Sub form not recognised
		{ir.MulE(ir.V(lv), ir.CI(2)), false, nil, 0},
		{ir.AddE(ir.AddE(ir.V(inv), ir.V(other)), ir.V(lv)), false, nil, 0}, // nested inv
		{ir.CI(7), false, nil, 0},
	}
	for i, c := range cases {
		s, ok := matchStream(arr, c.idx, lv)
		if ok != c.ok {
			t.Errorf("case %d: ok = %v, want %v", i, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if s.invVar != c.invVar || s.invConst != c.invCons {
			t.Errorf("case %d: stream %+v, want inv=%v const=%d", i, s, c.invVar, c.invCons)
		}
	}
}

func TestAnalyseLoop(t *testing.T) {
	arr := &ir.Array{Name: "a", Elem: ir.F64, Len: 8}
	brr := &ir.Array{Name: "b", Elem: ir.F64, Len: 8}
	lv := ir.NewVar("i", ir.I64)

	// Pure stream accesses: no other uses.
	info := analyseLoop([]ir.Stmt{
		&ir.Store{Arr: arr, Index: ir.V(lv), Val: ir.Ld(brr, ir.V(lv))},
	}, lv)
	if info.otherUses {
		t.Error("pure stream loop flagged otherUses")
	}
	if len(info.streams) != 2 {
		t.Errorf("streams = %d, want 2", len(info.streams))
	}

	// Arithmetic use of the loop variable.
	v := ir.NewVar("x", ir.F64)
	info = analyseLoop([]ir.Stmt{
		&ir.Assign{Var: v, Val: ir.I2F(ir.V(lv))},
	}, lv)
	if !info.otherUses {
		t.Error("arithmetic use not flagged")
	}

	// Non-stream index shape uses the variable.
	info = analyseLoop([]ir.Stmt{
		&ir.Store{Arr: arr, Index: ir.MulE(ir.V(lv), ir.CI(2)), Val: ir.CF(0)},
	}, lv)
	if !info.otherUses {
		t.Error("strided index not flagged as other use")
	}

	// Duplicate streams are deduplicated (load + store of same shape).
	info = analyseLoop([]ir.Stmt{
		&ir.Store{Arr: arr, Index: ir.V(lv), Val: ir.Ld(arr, ir.V(lv))},
	}, lv)
	if len(info.streams) != 1 {
		t.Errorf("dedup failed: %d streams", len(info.streams))
	}

	// Inner-loop bounds that read lv count as uses.
	inner := ir.NewVar("j", ir.I64)
	info = analyseLoop([]ir.Stmt{
		&ir.Loop{Var: inner, Start: ir.CI(0), End: ir.V(lv)},
	}, lv)
	if !info.otherUses {
		t.Error("inner-loop bound use not flagged")
	}
}

func TestAssignedIn(t *testing.T) {
	v := ir.NewVar("v", ir.I64)
	w := ir.NewVar("w", ir.I64)
	stmts := []ir.Stmt{
		&ir.If{Cond: ir.CI(1), Then: []ir.Stmt{&ir.Assign{Var: v, Val: ir.CI(0)}}},
	}
	if !assignedIn(stmts, v) {
		t.Error("assignment inside If not found")
	}
	if assignedIn(stmts, w) {
		t.Error("false positive")
	}
	loopStmts := []ir.Stmt{&ir.Loop{Var: w, Start: ir.CI(0), End: ir.CI(1)}}
	if !assignedIn(loopStmts, w) {
		t.Error("loop variable counts as assigned")
	}
}

func TestHasInnerLoop(t *testing.T) {
	i := ir.NewVar("i", ir.I64)
	if hasInnerLoop([]ir.Stmt{&ir.Assign{Var: i, Val: ir.CI(0)}}) {
		t.Error("false positive")
	}
	if !hasInnerLoop([]ir.Stmt{&ir.Loop{Var: i, Start: ir.CI(0), End: ir.CI(1)}}) {
		t.Error("direct loop missed")
	}
	if !hasInnerLoop([]ir.Stmt{
		&ir.If{Cond: ir.CI(1), Else: []ir.Stmt{&ir.Loop{Var: i, Start: ir.CI(0), End: ir.CI(1)}}},
	}) {
		t.Error("loop inside else missed")
	}
}

func TestCollectFPConsts(t *testing.T) {
	arr := &ir.Array{Name: "a", Elem: ir.F64, Len: 4}
	_, consts := collectUses([]ir.Stmt{
		&ir.Store{Arr: arr, Index: ir.CI(0),
			Val: ir.AddE(ir.CF(1.5), ir.MulE(ir.CF(2.5), ir.CF(1.5)))},
	})
	if len(consts) != 2 || consts[0] != 1.5 || consts[1] != 2.5 {
		t.Fatalf("consts = %v", consts)
	}
}

// TestCollectUsesOrder pins the first-use order the kernel hoists in:
// a store's array before the arrays its index and value load, and the
// if's condition before its arms.
func TestCollectUsesOrder(t *testing.T) {
	a := &ir.Array{Name: "a", Elem: ir.F64, Len: 4}
	idx := &ir.Array{Name: "idx", Elem: ir.I64, Len: 4}
	b := &ir.Array{Name: "b", Elem: ir.F64, Len: 4}
	c := &ir.Array{Name: "c", Elem: ir.F64, Len: 4}
	i := ir.NewVar("i", ir.I64)
	arrays, consts := collectUses([]ir.Stmt{&ir.Loop{
		Var: i, Start: ir.CI(0), End: ir.CI(4),
		Body: []ir.Stmt{
			&ir.Store{Arr: a, Index: ir.Ld(idx, ir.V(i)), Val: ir.MulE(ir.Ld(b, ir.V(i)), ir.CF(2))},
			&ir.If{
				Cond: ir.B2(ir.Lt, ir.Ld(b, ir.CI(0)), ir.CF(1)),
				Then: []ir.Stmt{&ir.Store{Arr: c, Index: ir.V(i), Val: ir.CF(2)}},
			},
		},
	}})
	want := []*ir.Array{a, idx, b, c}
	if len(arrays) != len(want) {
		t.Fatalf("arrays = %d, want %d", len(arrays), len(want))
	}
	for k := range want {
		if arrays[k] != want[k] {
			t.Errorf("arrays[%d] = %s, want %s", k, arrays[k].Name, want[k].Name)
		}
	}
	if len(consts) != 2 || consts[0] != 2 || consts[1] != 1 {
		t.Errorf("consts = %v, want [2 1]", consts)
	}
}

func TestRegPool(t *testing.T) {
	p := newRegPool("test", []uint8{3, 7, 9})
	a, err := p.alloc()
	if err != nil || a != 3 {
		t.Fatalf("first alloc = %d, %v", a, err)
	}
	b, _ := p.alloc()
	c, _ := p.alloc()
	if b != 7 || c != 9 {
		t.Fatalf("allocs: %d %d", b, c)
	}
	if _, err := p.alloc(); err == nil {
		t.Fatal("exhausted pool allocated")
	}
	p.free(b)
	if p.inUse() != 2 {
		t.Fatalf("inUse = %d", p.inUse())
	}
	d, _ := p.alloc()
	if d != 7 {
		t.Fatalf("freed register not reused: %d", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.free(3)
	p.free(3)
}

func TestTargetsOrder(t *testing.T) {
	ts := Targets()
	if len(ts) != 4 {
		t.Fatalf("targets = %d", len(ts))
	}
	if ts[0].String() != "AArch64/GCC 9.2" || ts[3].String() != "RISC-V/GCC 12.2" {
		t.Fatalf("order: %v", ts)
	}
}
