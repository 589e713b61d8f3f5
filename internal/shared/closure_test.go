package shared

import (
	"fmt"
	"strings"
	"testing"

	"bside/internal/elff"
	"bside/internal/ident"
)

// TestClosureCycleAndDepthBound: a DT_NEEDED cycle, or a chain deeper
// than 64 libraries along the walk, fails the analysis with one error
// text instead of recursing without end. A chain exactly 64 deep still
// resolves.
func TestClosureCycleAndDepthBound(t *testing.T) {
	libs := map[string]*elff.Binary{
		"liba.so": {Hash: "a", Needed: []string{"libb.so"}},
		"libb.so": {Hash: "b", Needed: []string{"liba.so"}},
	}
	chain := func(i int) string { return fmt.Sprintf("chain%02d.so", i) }
	for i := 0; i <= 64; i++ {
		lib := &elff.Binary{Hash: fmt.Sprint(i)}
		if i < 64 {
			lib.Needed = []string{chain(i + 1)}
		}
		libs[chain(i)] = lib
	}
	a := NewAnalyzer(func(name string) (*elff.Binary, error) {
		if lib, ok := libs[name]; ok {
			return lib, nil
		}
		return nil, &elffNotFound{name}
	}, ident.Config{})

	for _, needed := range [][]string{{"liba.so"}, {chain(0)}} {
		_, err := a.Program(&elff.Binary{Needed: needed})
		if err == nil || !strings.Contains(err.Error(), "dependency cycle or chain too deep at") {
			t.Fatalf("needed %v: err = %v, want the cycle-or-depth error", needed, err)
		}
	}

	deps, err := a.depHashes([]string{chain(1)})
	if err != nil {
		t.Fatalf("64-deep chain: %v", err)
	}
	pairs := make([]string, 0, 64)
	for i := 1; i <= 64; i++ {
		pairs = append(pairs, fmt.Sprintf("%s=%d", chain(i), i))
	}
	if want := strings.Join(pairs, ","); deps != want {
		t.Fatalf("deps = %q, want %q", deps, want)
	}
}
