package cfg_test

// A golden digest of the recovered graphs: a frontend change that
// claims to keep the graphs as they are must keep these hashes. The
// package is cfg_test because the corpus generator and the fuzzer link
// cfg.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"bside/internal/cfg"
	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/fuzzer"
)

// dumpGraph writes a canonical rendering of g to w: every block in ID
// order with its address, its import and every instruction (%#v), its
// out- and in-edges in order, then the functions, the active
// address-taken set, the roots and the counters of Stats.
func dumpGraph(w io.Writer, g *cfg.Graph) {
	blocks := g.Blocks()
	for i := range blocks {
		blk := &blocks[i]
		fmt.Fprintf(w, "block %d %#x import=%q\n", blk.ID, blk.Addr, g.ImportCall(blk))
		insns := g.Insns(blk)
		for j := range insns {
			fmt.Fprintf(w, "  %#v\n", insns[j])
		}
		fmt.Fprintf(w, "  succs %v\n  preds %v\n", g.Succs(blk), g.Preds(blk))
	}
	for _, f := range g.Funcs {
		fmt.Fprintf(w, "func %#x %q [%d,%d)\n", f.Entry, f.Name, f.First, f.End)
	}
	fmt.Fprintf(w, "active %#x\nroots %#x\n", g.ActiveAddrTaken, g.Roots)
	fmt.Fprintf(w, "stats decoded=%d blocks=%d edges=%d failures=%d\n",
		g.Stats.DecodedInsns, g.Stats.NumBlocks, g.Stats.NumEdges, g.Stats.DecodeFailures)
}

// graphDigests lists the SHA-256 of dumpGraph for each image of the
// digest set, recorded when the graph layout last changed on purpose.
var graphDigests = map[string]string{
	"dyn-qk6":   "1103c7ad2607d38b3a91ee7ff114958d380bf4ce6d285967e6da7722150398eb",
	"fuzz-1":    "40196bce0e368c8c43edbd08e288384fdaa96ded93cafcb2fe0f79b525853f2d",
	"fuzz-2":    "094c013cfae605923bd35b223de1154eddc14f801596b30d5b2401e748c394f5",
	"fuzz-3":    "4a48aca74e2052b2f9f55b2f35f73ca9b6526a54bafb196a2e940f0207626a64",
	"fuzz-4":    "8721bbd7f009810c248d4a67b2eeb91255b2dfbbf0b40e4836873c6b1da73e2b",
	"fuzz-5":    "b595b0f0b6cd336eef68a61cdd0bb570fe8e898f7a3e18b7d3127dfe46f99409",
	"fuzz-6":    "83f5873db2e92331eec7e4a4066465d30ce488c9570bd11aa146fa730a624aa7",
	"fuzz-7":    "72beceb089fb2cd05b7e6312ead987a714048902f42d0c9588811a9f1fb7017b",
	"fuzz-8":    "9b90eeba2b27080b42883a4056b70d0f9e60c00246772e3fcdf86c6fe011974d",
	"fuzz-9":    "620c974e91c673202d29f29e17caf9507c0c7c6d986ae73bdda007a4ef89c2c4",
	"fuzz-10":   "45e6ebb51cc26c36fd38294b5d9b38397e0c4ad77baaf0d86c6d6c677977c7cd",
	"fuzz-11":   "bedf82078269fab5cef141e782be6ca718c43316157ba17c8b8127a327ca39da",
	"fuzz-12":   "df6da90bb855439298d9d0fcd964e44a9faa522bb8bef83ecd0c266c1e5d71eb",
	"fuzz-13":   "a370afc91148bf16e14af90bbbcfbf7a219f72f91a2344f59b4d9ae6e29d5470",
	"fuzz-14":   "b73c0e7b0647d474fafd46a3fe3d7ffdd9d61dbf1d781299131881568224247f",
	"fuzz-15":   "65ebcee355498e94d0319bde921f29c55494e6e1351d0a2677226612ded15fb6",
	"fuzz-16":   "e863703ae8a223232dffa4e3a5689742d24f87e3f14b1a4d458f060eca863894",
	"fuzz-17":   "abe4bcfbbb1c3cd0bfed633d4700dbc8a7b301d9bf4ba3718a0bd32cf2e4d669",
	"fuzz-18":   "195d88f6d1092e7eb638886e8d7a3ae8b210a78b2febf6efb77bdf1eaa85ad32",
	"fuzz-19":   "3f1f76f5cdfed705e4e74efb24c7256a361b915edeb9664bb747f8a1d4ff1917",
	"fuzz-20":   "28b1c39b68d7e81da69a7079f830f8c4cc556e287bd0bf9697f6e1178e677f50",
	"large":     "cb4854a51291c2bd544f201e9555616d8ee88911285807a27afa7083c1cbb63e",
	"libc.so.6": "b4db2969a91b8ea9b54e715ef6b8762db90225dceaca66b48ff3cd0cdf3369c3",
	"sqlite":    "bd00ee24416ca387b551b13f761904a37a1e917b155a995a8e20ed9e76e28c3b",
}

// TestGraphDigest recovers the digest set and compares each graph's
// dump hash with its golden value: the first seed-42 FailCFGHuge image
// (the cold sweep's frontend shape), the large-binary image, the sqlite
// application with its library closure, and fuzz cases 1 to 20.
func TestGraphDigest(t *testing.T) {
	images := map[string]*elff.Binary{}
	build := func(p corpus.Profile) {
		bin, err := corpus.BuildProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		images[p.Name] = bin
	}
	for _, p := range corpus.DebianProfiles(42) {
		if p.Class == corpus.FailCFGHuge {
			build(p)
			break
		}
	}
	build(corpus.LargeBinaryProfile())
	for _, p := range corpus.AppProfiles() {
		if p.Name == "sqlite" {
			build(p)
		}
	}
	libs, err := corpus.NewLibrarySet()
	if err != nil {
		t.Fatal(err)
	}
	for queue := append([]string(nil), images["sqlite"].Needed...); len(queue) > 0; queue = queue[1:] {
		if images[queue[0]] != nil {
			continue
		}
		lib, err := libs.LoadLib(queue[0])
		if err != nil {
			t.Fatal(err)
		}
		images[queue[0]] = lib
		queue = append(queue, lib.Needed...)
	}
	for seed := int64(1); seed <= 20; seed++ {
		build(fuzzer.Gen(seed).Profile)
	}

	for name, bin := range images {
		g, err := cfg.Recover(bin, cfg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		dumpGraph(h, g)
		got := hex.EncodeToString(h.Sum(nil))
		if want := graphDigests[name]; got != want {
			t.Errorf("%s: graph digest %s, want %s", name, got, want)
		}
	}
	if len(images) != len(graphDigests) {
		t.Errorf("%d images, %d golden digests", len(images), len(graphDigests))
	}
}
