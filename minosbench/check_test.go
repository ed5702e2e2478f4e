package main

import (
	"strings"
	"testing"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/nvm"
)

func TestCheckValue(t *testing.T) {
	ck := newChecker(128)
	v, id := ck.issueWrite(nil, 42)
	if err := ck.checkValue(42, v); err != nil {
		t.Fatalf("own write rejected: %v", err)
	}
	if err := ck.checkValue(7, ck.codec.preload()); err != nil {
		t.Fatalf("preload value rejected: %v", err)
	}
	corrupt := append([]byte(nil), v...)
	corrupt[40] ^= 1
	for name, c := range map[string]struct {
		key uint64
		v   []byte
	}{
		"wrong-key read":                 {43, v},
		"fabricated value for other key": {43, ck.codec.encode(nil, 43, id)},
		"write id never issued":          {42, ck.codec.encode(nil, 42, id+1)},
		"corrupt filler":                 {42, corrupt},
		"short value":                    {42, v[:100]},
		"no value":                       {42, nil},
	} {
		if err := ck.checkValue(c.key, c.v); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// replica is one node's store and log for the replica-check fixtures.
type replica struct {
	st  *kv.Store
	log *nvm.Log
}

func newReplica(ck *checker) replica {
	st := kv.NewStore(16)
	st.Preload(records, ck.codec.preload())
	return replica{st: st, log: nvm.NewLog()}
}

// apply installs value under key as a completed, persisted write.
func (r replica) apply(key uint64, v []byte, ver ddp.Version) {
	rec := r.st.GetOrCreate(ddp.Key(key))
	rec.Lock()
	rec.SetValue(v)
	rec.Unlock()
	r.log.Append(ddp.Key(key), ddp.Timestamp{Node: 0, Version: ver}, v, 0)
}

func TestCheckReplicas(t *testing.T) {
	ck := newChecker(64)
	a, b := newReplica(ck), newReplica(ck)
	v1, _ := ck.issueWrite(nil, 5)
	a.apply(5, v1, 1)
	b.apply(5, v1, 1)
	stores := []*kv.Store{a.st, b.st}
	logs := []*nvm.Log{a.log, b.log}
	if err := ck.checkReplicas(stores, logs); err != nil {
		t.Fatalf("agreeing replicas rejected: %v", err)
	}

	v2, _ := ck.issueWrite(nil, 5)
	b.apply(5, v2, 2)
	err := ck.checkReplicas(stores, logs)
	if err == nil || !strings.Contains(err.Error(), "differs from node 0") {
		t.Fatalf("divergent replica: got %v", err)
	}

	// Stores agree, but one node's log lost the write.
	c := newReplica(ck)
	rec := c.st.GetOrCreate(5)
	rec.Lock()
	rec.SetValue(v1)
	rec.Unlock()
	err = ck.checkReplicas([]*kv.Store{a.st, c.st}, []*nvm.Log{a.log, c.log})
	if err == nil || !strings.Contains(err.Error(), "log lacks") {
		t.Fatalf("store ahead of its log: got %v", err)
	}
	// Without logs (models that persist lazily) only the stores count.
	if err := ck.checkReplicas([]*kv.Store{a.st, c.st}, nil); err != nil {
		t.Fatalf("store-only check: %v", err)
	}
}
