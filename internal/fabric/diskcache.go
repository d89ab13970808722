package fabric

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// entryMagic versions the on-disk entry format. An entry is one file
// holding a single header line — magic, body length, SHA-256 of the body —
// followed by the raw response body:
//
//	rfpfab1 <len> <sha256-hex>\n<body>
//
// The header makes truncation and bit-rot detectable: a Get that fails
// length or digest verification deletes the file and reports a miss, so a
// corrupted entry costs one re-simulation, never a wrong answer.
const entryMagic = "rfpfab1"

// maxDiskEntryBytes bounds a single entry body; anything larger is
// refused (bodies are one marshalled stats block, a few KB).
const maxDiskEntryBytes = 64 << 20

// DiskCache is the persistent tier of the result fabric: a
// content-addressed store of response bodies under a sharded directory
// tree (dir/<addr[:2]>/<addr>), written atomically via same-directory
// rename so a crash mid-write never leaves a half-entry under its final
// name. The index is a byte-capped LRU whose evictions delete the file,
// inline on Put; recency survives restarts approximately via file mtimes
// (Get touches the file).
type DiskCache struct {
	dir      string
	maxBytes int64
	index    *LRU[struct{}] // addr -> entry, sized by file bytes (header + body)

	hits      counter
	misses    counter
	writes    counter
	evictions counter
	corrupt   counter
}

// DefaultDiskMaxBytes caps the disk cache when Options leave it 0: 1 GiB.
const DefaultDiskMaxBytes = 1 << 30

// OpenDiskCache opens (creating if needed) the cache rooted at dir and
// rebuilds the LRU index from the existing entries, oldest-mtime first.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: cache dir: %w", err)
	}
	c := &DiskCache{dir: dir, maxBytes: maxBytes}
	c.index = NewLRU(0, maxBytes, func(addr string, _ struct{}) {
		os.Remove(c.path(addr))
		c.evictions.Add(1)
	})
	type found struct {
		addr  string
		size  int64
		mtime int64
	}
	var existing []found
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !validAddr(f.Name()) {
				// Leftover tmp files from a crashed write are garbage;
				// sweep them now.
				if !f.IsDir() {
					os.Remove(filepath.Join(dir, sh.Name(), f.Name()))
				}
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			existing = append(existing, found{addr: f.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	sort.Slice(existing, func(i, j int) bool {
		if existing[i].mtime != existing[j].mtime {
			return existing[i].mtime < existing[j].mtime
		}
		return existing[i].addr < existing[j].addr
	})
	for _, e := range existing {
		c.index.Put(e.addr, struct{}{}, e.size)
	}
	return c, nil
}

// validAddr reports whether s looks like a content address: 64 lowercase
// hex characters. Everything entering a file path is gated on this, so a
// hostile addr ("../../etc/passwd") can never escape the cache tree.
func validAddr(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *DiskCache) path(addr string) string {
	return filepath.Join(c.dir, addr[:2], addr)
}

// Get returns the body stored under addr, verifying the header's length
// and digest. Corrupt or truncated entries are deleted and reported as a
// miss — the caller re-simulates instead of serving garbage.
func (c *DiskCache) Get(addr string) ([]byte, bool) {
	if !validAddr(addr) {
		return nil, false
	}
	if _, ok := c.index.Get(addr); !ok {
		c.misses.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(c.path(addr))
	if err != nil {
		c.index.Remove(addr)
		c.misses.Add(1)
		return nil, false
	}
	body, ok := decodeEntry(raw)
	if !ok {
		c.corrupt.Add(1)
		c.index.Remove(addr)
		os.Remove(c.path(addr))
		c.misses.Add(1)
		return nil, false
	}
	// Touch the mtime so restart-time LRU seeding approximates recency.
	now := timeNow()
	os.Chtimes(c.path(addr), now, now)
	c.hits.Add(1)
	return body, true
}

// decodeEntry parses and verifies one on-disk entry.
func decodeEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := bytes.Fields(raw[:nl])
	if len(fields) != 3 || string(fields[0]) != entryMagic {
		return nil, false
	}
	n, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil || n < 0 || n > maxDiskEntryBytes {
		return nil, false
	}
	body := raw[nl+1:]
	if int64(len(body)) != n {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != string(fields[2]) {
		return nil, false
	}
	return body, true
}

// Put stores body under addr: write to a temp file in the final shard
// directory, fsync-free atomic rename, then run the byte-cap janitor. A
// racing identical Put is harmless — both bodies are byte-identical by
// the determinism contract.
func (c *DiskCache) Put(addr string, body []byte) error {
	if !validAddr(addr) {
		return fmt.Errorf("fabric: invalid content address %q", addr)
	}
	if len(body) > maxDiskEntryBytes {
		return fmt.Errorf("fabric: entry body %d bytes exceeds the %d cap", len(body), maxDiskEntryBytes)
	}
	if c.index.Contains(addr) {
		return nil
	}
	shard := filepath.Join(c.dir, addr[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	header := fmt.Sprintf("%s %d %s\n", entryMagic, len(body), hex.EncodeToString(sum[:]))
	tmp, err := os.CreateTemp(shard, "tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.WriteString(header); err == nil {
		_, err = tmp.Write(body)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, c.path(addr)); err != nil {
		os.Remove(tmpName)
		return err
	}
	c.index.Put(addr, struct{}{}, int64(len(header)+len(body)))
	c.writes.Add(1)
	return nil
}

// Len returns the indexed entry count.
func (c *DiskCache) Len() int { return c.index.Len() }

// Bytes returns the indexed total size (headers included).
func (c *DiskCache) Bytes() int64 { return c.index.Bytes() }
