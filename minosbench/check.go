package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/nvm"
)

// Every value the benchmark writes names its key and a unique write
// id, so any value a read returns can be traced to the write that
// produced it:
//
//	[0:8) key  [8:16) write id  [16:n-8) fixed filler  [n-8:n) tag(key, id)
//
// The preload value carries key preloadKey and id 0.
const (
	preloadKey   = ^uint64(0)
	minValueSize = 24
)

// valueCodec encodes and validates values of one workload's size.
type valueCodec struct {
	size   int
	filler []byte
}

func newValueCodec(size int) valueCodec {
	if size < minValueSize {
		panic(fmt.Sprintf("value size %d below %d", size, minValueSize))
	}
	f := make([]byte, size-minValueSize)
	for i := range f {
		f[i] = byte(i*7 + 3)
	}
	return valueCodec{size: size, filler: f}
}

func tag(key, id uint64) uint64 {
	s := splitmix64{state: key*0x9E3779B97F4A7C15 ^ id}
	return s.next()
}

// encode writes the value for (key, id) into dst's storage.
func (c valueCodec) encode(dst []byte, key, id uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst[:0], key)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, c.filler...)
	return binary.LittleEndian.AppendUint64(dst, tag(key, id))
}

func (c valueCodec) preload() []byte { return c.encode(nil, preloadKey, 0) }

// decode returns the key and write id a well-formed value names.
func (c valueCodec) decode(v []byte) (key, id uint64, err error) {
	if len(v) != c.size {
		return 0, 0, fmt.Errorf("value length %d, want %d", len(v), c.size)
	}
	key = binary.LittleEndian.Uint64(v[0:])
	id = binary.LittleEndian.Uint64(v[8:])
	if binary.LittleEndian.Uint64(v[c.size-8:]) != tag(key, id) || !bytes.Equal(v[16:c.size-8], c.filler) {
		return 0, 0, errors.New("value corrupt")
	}
	return key, id, nil
}

// writeIDs maps each issued write id to the key it was written to.
// One goroutine issues ids; any goroutine may look them up once the
// write's frame has been sent (the transport orders the two).
type writeIDs struct {
	next   uint64
	chunks [1 << 12]atomic.Pointer[[idChunk]uint64]
}

const idChunk = 1 << 16

// issue returns a fresh write id for key.
func (t *writeIDs) issue(key uint64) uint64 {
	t.next++
	id := t.next
	ci := id / idChunk
	if ci >= uint64(len(t.chunks)) {
		panic("write id table full")
	}
	c := t.chunks[ci].Load()
	if c == nil {
		c = new([idChunk]uint64)
		t.chunks[ci].Store(c)
	}
	c[id%idChunk] = key + 1
	return id
}

// keyOf returns the key write id was issued for.
func (t *writeIDs) keyOf(id uint64) (uint64, bool) {
	ci := id / idChunk
	if ci >= uint64(len(t.chunks)) {
		return 0, false
	}
	c := t.chunks[ci].Load()
	if c == nil || c[id%idChunk] == 0 {
		return 0, false
	}
	return c[id%idChunk] - 1, true
}

// checker validates replies and replicas against what was written.
type checker struct {
	codec valueCodec
	ids   writeIDs
	// written marks keys with at least one issued write; owned by the
	// issuing goroutine until the run drains.
	written []bool
}

func newChecker(valueSize int) *checker {
	return &checker{codec: newValueCodec(valueSize), written: make([]bool, records)}
}

// issueWrite allocates the id for a write to key and encodes its value.
func (ck *checker) issueWrite(dst []byte, key uint64) ([]byte, uint64) {
	id := ck.ids.issue(key)
	ck.written[key] = true
	return ck.codec.encode(dst, key, id), id
}

// checkValue accepts the preload value or a value the benchmark wrote
// to key; anything else is an error.
func (ck *checker) checkValue(key uint64, v []byte) error {
	if v == nil {
		return fmt.Errorf("key %d: no value", key)
	}
	vk, id, err := ck.codec.decode(v)
	if err != nil {
		return fmt.Errorf("key %d: %w", key, err)
	}
	if id == 0 {
		if vk != preloadKey {
			return fmt.Errorf("key %d: id 0 names key %d", key, vk)
		}
		return nil
	}
	if vk != key {
		return fmt.Errorf("key %d: value of key %d (write %d)", key, vk, id)
	}
	if wk, ok := ck.ids.keyOf(id); !ok || wk != key {
		return fmt.Errorf("key %d: write %d was never issued for it", key, id)
	}
	return nil
}

// checkReplicas verifies, for every written key, that all stores hold
// the same valid value and, when logs is non-nil, that each node's
// materialized NVM log holds that value too (a key whose writes were
// all refused may still hold the preload value and have no entry).
func (ck *checker) checkReplicas(stores []*kv.Store, logs []*nvm.Log) error {
	var durable []map[ddp.Key]nvm.Entry
	for _, l := range logs {
		durable = append(durable, l.Materialize())
	}
	preload := ck.codec.preload()
	for k, w := range ck.written {
		if !w {
			continue
		}
		key := ddp.Key(k)
		var first []byte
		for i, st := range stores {
			v := storeValue(st, key)
			if i == 0 {
				if err := ck.checkValue(uint64(k), v); err != nil {
					return fmt.Errorf("node 0 store: %w", err)
				}
				first = v
			} else if !bytes.Equal(v, first) {
				return fmt.Errorf("key %d: node %d store differs from node 0", k, i)
			}
			if durable == nil {
				continue
			}
			e, ok := durable[i][key]
			switch {
			case ok && !bytes.Equal(e.Value, v):
				return fmt.Errorf("key %d: node %d log differs from its store", k, i)
			case !ok && !bytes.Equal(v, preload):
				return fmt.Errorf("key %d: node %d store holds a write its log lacks", k, i)
			}
		}
	}
	return nil
}

// storeValue copies key's value out of st under the record lock.
func storeValue(st *kv.Store, key ddp.Key) []byte {
	r := st.Get(key)
	if r == nil {
		return nil
	}
	r.Lock()
	defer r.Unlock()
	if r.Value == nil {
		return nil
	}
	return append([]byte(nil), r.Value...)
}
