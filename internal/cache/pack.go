package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"bside/internal/elff"
)

// The pack tier: loose JSON envelopes compacted into one immutable,
// content-addressed file that warm processes memory-map read-only and
// probe by binary search — no per-entry open() and no envelope decode;
// the payload is the same JSON the loose envelope carried, decoded once
// per key and process before the memory tier takes over.
//
// File layout (all integers little-endian):
//
//	header (96 B)
//	  [0:4]   magic "BSPK"
//	  [4:8]   u32 format version (1)
//	  [8:12]  u32 entry count
//	  [12:16] reserved
//	  [16:24] u64 index offset   (= 96)
//	  [24:32] u64 strings offset (kind table + conf-fingerprint blob)
//	  [32:40] u64 payload offset
//	  [40:48] u64 file size
//	  [48:80] sha256 of everything after the header
//	  [80:96] reserved
//	index: count fixed-width 48 B records, sorted by (kind, key, conf)
//	  [0:32]  key   (the entry's SHA-256, raw bytes)
//	  [32:36] u32 conf offset (absolute)
//	  [36:38] u16 conf length
//	  [38]    u8 kind id (index into the kind table)
//	  [39]    reserved, must be zero
//	  [40:48] u64 payload offset (absolute, points at the length prefix)
//	strings: u16 kind count, then per kind u16 length + bytes,
//	  then the deduplicated conf-fingerprint blob
//	payloads: per entry u32 length + JSON bytes
//
// The whole-file checksum makes corruption detection O(size) at open
// rather than per-probe: a truncated or bit-flipped pack fails to open
// and the store silently runs without it — the loose tier or a
// recompute answers instead, never a ghost. Record sortedness, every
// offset and the reserved byte are validated at open too, so the probe
// path can binary-search and slice without re-checking bounds. A pack
// whose records set byte 39 (the binary payload codecs of earlier
// releases did) is refused whole, exactly like a corrupt one.
const (
	packMagic      = "BSPK"
	packFormat     = 1
	packHeaderSize = 96
	packRecordSize = 48

	// packDirName is the subdirectory of a store where pack files live,
	// excluded from the loose-tier directory walk.
	packDirName = "packs"
	packExt     = ".pack"
)

// pack is one opened, validated pack file: an immutable mapping plus
// the parsed kind table. All probe state is derived from data; a pack
// is safe for concurrent use without locks.
type pack struct {
	path   string
	img    *elff.Image
	data   []byte
	count  int
	index  []byte   // the record region, count*packRecordSize bytes
	kinds  []string // kind id -> kind name
	mapped bool
}

// openPack maps and fully validates one pack file. Any defect —
// truncation, a failed checksum, unsorted records, an offset outside
// its region — is an error; the caller treats it as "this pack does
// not exist".
func openPack(path string) (*pack, error) {
	img, err := elff.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	p, err := parsePack(path, img)
	if err != nil {
		_ = img.Close()
		return nil, fmt.Errorf("cache: pack %s: %w", path, err)
	}
	return p, nil
}

func parsePack(path string, img *elff.Image) (*pack, error) {
	data := img.Data
	if len(data) < packHeaderSize {
		return nil, fmt.Errorf("short file (%d bytes)", len(data))
	}
	if string(data[0:4]) != packMagic {
		return nil, fmt.Errorf("bad magic")
	}
	if v := le32(data[4:8]); v != packFormat {
		return nil, fmt.Errorf("unknown format version %d", v)
	}
	count := int(le32(data[8:12]))
	indexOff := le64(data[16:24])
	stringsOff := le64(data[24:32])
	payloadOff := le64(data[32:40])
	fileSize := le64(data[40:48])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("size mismatch: header says %d, file is %d", fileSize, len(data))
	}
	sum := sha256.Sum256(data[packHeaderSize:])
	if !bytes.Equal(sum[:], data[48:80]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	if indexOff != packHeaderSize ||
		stringsOff != indexOff+uint64(count)*packRecordSize ||
		payloadOff < stringsOff || payloadOff > uint64(len(data)) {
		return nil, fmt.Errorf("inconsistent region offsets")
	}
	// Kind table.
	strRegion := data[stringsOff:payloadOff]
	if len(strRegion) < 2 {
		return nil, fmt.Errorf("truncated kind table")
	}
	nKinds := int(binary.LittleEndian.Uint16(strRegion))
	pos := 2
	kinds := make([]string, 0, nKinds)
	for i := 0; i < nKinds; i++ {
		if pos+2 > len(strRegion) {
			return nil, fmt.Errorf("truncated kind table")
		}
		n := int(binary.LittleEndian.Uint16(strRegion[pos:]))
		pos += 2
		if pos+n > len(strRegion) {
			return nil, fmt.Errorf("truncated kind table")
		}
		kinds = append(kinds, string(strRegion[pos:pos+n]))
		pos += n
	}
	p := &pack{
		path:   path,
		img:    img,
		data:   data,
		count:  count,
		index:  data[indexOff:stringsOff],
		kinds:  kinds,
		mapped: img.Mapped(),
	}
	// Validate every record once so the probe path never has to: conf
	// and payload slices in bounds, kind ids resolvable, the reserved
	// byte zero, and strict (kind, key, conf) ordering so binary search
	// is sound.
	var prev []byte
	for i := 0; i < count; i++ {
		r := p.rec(i)
		if int(r[38]) >= len(kinds) {
			return nil, fmt.Errorf("record %d: bad kind id %d", i, r[38])
		}
		if r[39] != 0 {
			return nil, fmt.Errorf("record %d: reserved byte set (%d)", i, r[39])
		}
		cOff, cLen := uint64(le32(r[32:36])), uint64(binary.LittleEndian.Uint16(r[36:38]))
		if cOff < stringsOff || cOff+cLen > payloadOff {
			return nil, fmt.Errorf("record %d: conf out of bounds", i)
		}
		pOff := le64(r[40:48])
		if pOff < payloadOff || pOff+4 > uint64(len(data)) {
			return nil, fmt.Errorf("record %d: payload out of bounds", i)
		}
		pLen := uint64(le32(data[pOff : pOff+4]))
		if pOff+4+pLen > uint64(len(data)) {
			return nil, fmt.Errorf("record %d: payload out of bounds", i)
		}
		if prev != nil && packRecCompare(prev, r, p.data) >= 0 {
			return nil, fmt.Errorf("record %d: index not sorted", i)
		}
		prev = r
	}
	return p, nil
}

func (p *pack) rec(i int) []byte {
	return p.index[i*packRecordSize : (i+1)*packRecordSize]
}

func (p *pack) recConf(r []byte) []byte {
	off := le32(r[32:36])
	n := binary.LittleEndian.Uint16(r[36:38])
	return p.data[off : uint64(off)+uint64(n)]
}

func (p *pack) recPayload(r []byte) []byte {
	off := le64(r[40:48])
	n := le32(p.data[off : off+4])
	return p.data[off+4 : off+4+uint64(n)]
}

// packRecCompare orders two records by (kind id, key, conf).
func packRecCompare(a, b []byte, data []byte) int {
	if a[38] != b[38] {
		if a[38] < b[38] {
			return -1
		}
		return 1
	}
	if c := bytes.Compare(a[0:32], b[0:32]); c != 0 {
		return c
	}
	ac := data[le32(a[32:36]) : uint64(le32(a[32:36]))+uint64(binary.LittleEndian.Uint16(a[36:38]))]
	bc := data[le32(b[32:36]) : uint64(le32(b[32:36]))+uint64(binary.LittleEndian.Uint16(b[36:38]))]
	return bytes.Compare(ac, bc)
}

// kindID resolves a kind name against the pack's kind table (-1 when
// the pack holds no entries of that kind). Linear: the table has at
// most a handful of kinds.
func (p *pack) kindID(kind string) int {
	for i, k := range p.kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// decodeHexKey decodes a 64-char lowercase-hex key into dst without
// allocating. Keys that are not canonical hex SHA-256 strings never
// enter a pack, so a malformed key is simply "not found".
func decodeHexKey(key string, dst *[32]byte) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < 32; i++ {
		hi := hexNibble(key[2*i])
		lo := hexNibble(key[2*i+1])
		if hi < 0 || lo < 0 {
			return false
		}
		dst[i] = byte(hi<<4 | lo)
	}
	return true
}

func hexNibble(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}

// probe binary-searches the pack for (kind, key) and returns the first
// record whose conf fingerprint is acceptable: the exact conf when
// anyConf is false, or whatever is stored (LoadAny) when true. The
// returned payload aliases the mapping and must be decoded, not
// retained. Allocation-free on the Load path.
func (p *pack) probe(kind, key, conf string, anyConf bool) (gotConf string, payload []byte, ok bool) {
	kid := p.kindID(kind)
	if kid < 0 {
		return "", nil, false
	}
	var kb [32]byte
	if !decodeHexKey(key, &kb) {
		return "", nil, false
	}
	lo := sort.Search(p.count, func(i int) bool {
		r := p.rec(i)
		if int(r[38]) != kid {
			return int(r[38]) > kid
		}
		return bytes.Compare(r[0:32], kb[:]) >= 0
	})
	for i := lo; i < p.count; i++ {
		r := p.rec(i)
		if int(r[38]) != kid || !bytes.Equal(r[0:32], kb[:]) {
			break
		}
		c := p.recConf(r)
		if anyConf || string(c) == conf {
			if anyConf {
				gotConf = string(c)
			} else {
				gotConf = conf
			}
			return gotConf, p.recPayload(r), true
		}
	}
	return "", nil, false
}

// entries iterates every record in the pack, handing the callback views
// into the mapping (kind, hex key, conf, payload). Used by compaction
// to carry an old pack's entries into its successor.
func (p *pack) entries(fn func(kind, key, conf string, payload []byte)) {
	for i := 0; i < p.count; i++ {
		r := p.rec(i)
		fn(p.kinds[r[38]], hex.EncodeToString(r[0:32]), string(p.recConf(r)), p.recPayload(r))
	}
}

// packEntry is one entry headed into a pack build.
type packEntry struct {
	kind    string
	key     [32]byte
	conf    string
	payload []byte
}

// buildPack serializes entries into pack-file bytes: entries are sorted
// by (kind, key, conf), exact duplicates collapse to the first
// occurrence (callers order loose before carried-over pack entries, so
// the freshest copy wins — they are content-identical anyway), conf
// fingerprints are deduplicated into the string blob, and the trailing
// checksum region is hashed last.
func buildPack(entries []packEntry) ([]byte, error) {
	// Kind table in first-seen-sorted order.
	kindSet := map[string]bool{}
	for _, e := range entries {
		kindSet[e.kind] = true
	}
	kinds := make([]string, 0, len(kindSet))
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if len(kinds) > math.MaxUint8+1 {
		return nil, fmt.Errorf("cache: too many kinds (%d) for one pack", len(kinds))
	}
	kindID := make(map[string]uint8, len(kinds))
	for i, k := range kinds {
		kindID[k] = uint8(i)
	}
	for _, e := range entries {
		if len(e.conf) > math.MaxUint16 {
			return nil, fmt.Errorf("cache: conf fingerprint too long (%d bytes)", len(e.conf))
		}
		if uint64(len(e.payload)) > math.MaxUint32 {
			return nil, fmt.Errorf("cache: payload too large (%d bytes)", len(e.payload))
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if kindID[a.kind] != kindID[b.kind] {
			return kindID[a.kind] < kindID[b.kind]
		}
		if c := bytes.Compare(a.key[:], b.key[:]); c != 0 {
			return c < 0
		}
		return a.conf < b.conf
	})
	dedup := entries[:0]
	for i, e := range entries {
		if i > 0 {
			prev := dedup[len(dedup)-1]
			if prev.kind == e.kind && prev.key == e.key && prev.conf == e.conf {
				continue
			}
		}
		dedup = append(dedup, e)
	}
	entries = dedup

	// Region layout.
	indexOff := uint64(packHeaderSize)
	stringsOff := indexOff + uint64(len(entries))*packRecordSize
	strBlob := make([]byte, 0, 256)
	strBlob = binary.LittleEndian.AppendUint16(strBlob, uint16(len(kinds)))
	for _, k := range kinds {
		strBlob = binary.LittleEndian.AppendUint16(strBlob, uint16(len(k)))
		strBlob = append(strBlob, k...)
	}
	confOff := make(map[string]uint64, 8)
	for _, e := range entries {
		if _, ok := confOff[e.conf]; ok {
			continue
		}
		confOff[e.conf] = stringsOff + uint64(len(strBlob))
		strBlob = append(strBlob, e.conf...)
	}
	payloadOff := stringsOff + uint64(len(strBlob))
	if payloadOff > math.MaxUint32 {
		// Record conf offsets are u32; a pack whose index+strings exceed
		// 4 GiB is far past the design point anyway.
		return nil, fmt.Errorf("cache: pack string region offset overflows")
	}

	var totalPayload uint64
	for _, e := range entries {
		totalPayload += 4 + uint64(len(e.payload))
	}
	buf := make([]byte, 0, payloadOff+totalPayload)
	buf = append(buf, make([]byte, packHeaderSize)...)

	// Index records (payload offsets are assigned in sorted order, so
	// the payload region is laid out in index order too).
	pOff := payloadOff
	for _, e := range entries {
		var r [packRecordSize]byte
		copy(r[0:32], e.key[:])
		binary.LittleEndian.PutUint32(r[32:36], uint32(confOff[e.conf]))
		binary.LittleEndian.PutUint16(r[36:38], uint16(len(e.conf)))
		r[38] = kindID[e.kind]
		binary.LittleEndian.PutUint64(r[40:48], pOff)
		buf = append(buf, r[:]...)
		pOff += 4 + uint64(len(e.payload))
	}
	buf = append(buf, strBlob...)
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.payload)))
		buf = append(buf, e.payload...)
	}

	h := buf[0:packHeaderSize]
	copy(h[0:4], packMagic)
	binary.LittleEndian.PutUint32(h[4:8], packFormat)
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(entries)))
	binary.LittleEndian.PutUint64(h[16:24], indexOff)
	binary.LittleEndian.PutUint64(h[24:32], stringsOff)
	binary.LittleEndian.PutUint64(h[32:40], payloadOff)
	binary.LittleEndian.PutUint64(h[40:48], uint64(len(buf)))
	sum := sha256.Sum256(buf[packHeaderSize:])
	copy(h[48:80], sum[:])
	return buf, nil
}

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
