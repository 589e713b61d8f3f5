package cfg_test

// The graph's shape: pointer-free blocks and edges, CSR edge order and
// functions as block-ID ranges. The package is cfg_test because the
// corpus generator itself links cfg.

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"bside/internal/cfg"
	"bside/internal/corpus"
)

// TestGraphIsPointerFree pins Block and Edge as flat records the GC
// never scans: a reflect walk finds no field that may carry a pointer,
// and each stays within its size budget.
func TestGraphIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(cfg.Block{}); n > 32 {
		t.Errorf("Block is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(cfg.Edge{}); n > 12 {
		t.Errorf("Edge is %d bytes, want at most 12", n)
	}
	var walk func(name string, typ reflect.Type)
	walk = func(name string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Array:
			walk(name, typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s holds a %v, which may carry a pointer", name, typ)
		}
	}
	walk("Block", reflect.TypeOf(cfg.Block{}))
	walk("Edge", reflect.TypeOf(cfg.Edge{}))
}

// TestGraphCSROrder checks the slabs against definitions computed
// block by block on the seed-42 FailCFG and FailCFGHuge images, the
// largest graphs the corpus builds: each block's predecessors are its
// in-edges in the order met by walking the blocks in ID order and each
// block's successors in order, and each function's blocks are exactly
// those whose nearest preceding function entry is its own.
func TestGraphCSROrder(t *testing.T) {
	checked := 0
	for _, p := range corpus.DebianProfiles(42) {
		if p.Class != corpus.FailCFG && p.Class != corpus.FailCFGHuge {
			continue
		}
		bin, err := corpus.BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		checked++
		blocks := g.Blocks()

		preds := make([][]cfg.Edge, len(blocks))
		edges := 0
		for i := range blocks {
			blk := &blocks[i]
			if blk.ID != cfg.BlockID(i) || g.Block(blk.ID) != blk {
				t.Fatalf("%s: block %d has ID %d", p.Name, i, blk.ID)
			}
			if i > 0 && blocks[i-1].Addr >= blk.Addr {
				t.Fatalf("%s: block %d is not in address order", p.Name, i)
			}
			if insns := g.Insns(blk); len(insns) == 0 || insns[0].Addr != blk.Addr {
				t.Fatalf("%s: block %d's instructions do not start at its address", p.Name, i)
			}
			for _, e := range g.Succs(blk) {
				if e.From != blk.ID {
					t.Fatalf("%s: block %d lists an out-edge from %d", p.Name, i, e.From)
				}
				preds[e.To] = append(preds[e.To], e)
				edges++
			}
		}
		if edges != g.Stats.NumEdges {
			t.Fatalf("%s: %d out-edges, Stats.NumEdges %d", p.Name, edges, g.Stats.NumEdges)
		}
		for i := range blocks {
			if got := g.Preds(&blocks[i]); !slices.Equal(got, preds[i]) {
				t.Fatalf("%s: block %d preds %v, want %v", p.Name, i, got, preds[i])
			}
		}

		owner := -1
		members := make([][]cfg.BlockID, len(g.Funcs))
		for i := range blocks {
			for owner+1 < len(g.Funcs) && g.Funcs[owner+1].Entry <= blocks[i].Addr {
				owner++
			}
			if owner >= 0 {
				members[owner] = append(members[owner], blocks[i].ID)
			}
		}
		for i := range g.Funcs {
			fn := &g.Funcs[i]
			var got []cfg.BlockID
			for _, b := range g.FuncBlocks(fn) {
				got = append(got, b.ID)
			}
			if !slices.Equal(got, members[i]) {
				t.Fatalf("%s: function %#x blocks %v, want %v", p.Name, fn.Entry, got, members[i])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no FailCFG or FailCFGHuge profile in the seed-42 tree")
	}
}
