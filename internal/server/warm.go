package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"multiprefix/internal/core"
)

// Plan-cache warming: a fresh process serves its first requests at
// cold-cache cost — every distinct label vector pays a full plan build
// while traffic waits. The previous process knew exactly which plans
// were worth having: its cache survived the LRU. So on drain the
// server persists its live key set (PersistPlansToFile), and the next
// process pre-builds those plans before /readyz flips
// (BeginWarm + WarmFromFile), turning restart cold-start into a
// bounded offline cost.
//
// The file holds construction inputs only — backend, wire op name,
// label vector, m. Resident state (Bind/Update) is deliberately NOT
// persisted: versions are process-local and a restart is an eviction
// writ large, so clients observe not_bound and re-bind, never a
// silently stale vector.

// warmKey is one persisted plan identity. The file is written from
// each plan's own int32 labels (warmKey[int32]) and read back as int
// (warmKey[int]), so a label out of int32 range skips its entry at
// validation instead of failing the whole file's parse.
type warmKey[L core.Label] struct {
	Backend string `json:"backend"`
	Op      string `json:"op"` // wire name: sum, max, ...
	M       int    `json:"m"`
	Labels  []L    `json:"labels"`
}

// opWireNames maps core operator names back to their wire names,
// inverting the ops table (construction keys store core names).
var opWireNames = func() map[string]string {
	w := make(map[string]string, len(ops))
	for wire, op := range ops {
		w[op.Name] = wire
	}
	return w
}()

// BeginWarm flips the server into warming: /readyz answers 503
// {"status":"warming"} until WarmFromFile completes. Call before
// serving so a load balancer holds traffic during the pre-build.
func (s *Server) BeginWarm() { s.warming.Store(true) }

// WarmFromFile pre-builds every plan recorded in the persisted key set
// at path, then ends warming (even on error — a bad warm file must not
// wedge readiness forever). A missing file is a clean first boot:
// (0, nil). Entries that no longer validate (unknown backend or op,
// shape over the server limits) are skipped, not fatal: the file may
// come from a different configuration.
//
// The file is read as a stream, one key at a time: each key's labels
// are decoded, built into its plan and dropped before the next key is
// read, so warming holds one key's text and labels beside the plans it
// built, never the whole file. A file that stops parsing part way keeps
// the plans built before the fault and reports it.
func (s *Server) WarmFromFile(path string) (warmed int, err error) {
	defer s.warming.Store(false)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("reading warm file: %w", err)
	}
	defer f.Close()
	bad := func(err error) (int, error) {
		return warmed, fmt.Errorf("parsing warm file %s: %w", path, err)
	}
	dec := json.NewDecoder(bufio.NewReader(f))
	switch tok, err := dec.Token(); {
	case err != nil:
		return bad(err)
	case tok == nil: // null: no keys
	case tok != json.Delim('['):
		return bad(fmt.Errorf("want an array of plan keys, got %v", tok))
	default:
		for dec.More() {
			var k warmKey[int]
			if err := dec.Decode(&k); err != nil {
				return bad(err)
			}
			if s.warmOne(k) {
				warmed++
				s.st.warmedPlans.Add(1)
			}
		}
		if _, err := dec.Token(); err != nil { // the closing ']'
			return bad(err)
		}
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return bad(errors.New("data after the array of plan keys"))
	}
	return warmed, nil
}

// warmOne builds k's plan into the cache and reports whether it did: an
// unknown backend or op, a shape over the server limits or a failed
// build skips the key.
func (s *Server) warmOne(k warmKey[int]) bool {
	op, ok := ops[k.Op]
	if !ok || !served(k.Backend) || len(k.Labels) > s.opts.MaxN || k.M > s.opts.MaxM {
		return false
	}
	entry, err := s.cache.acquire(s.base, k.Backend, op, k.Labels, k.M)
	if err != nil {
		return false // a plan that won't build now won't build for traffic either
	}
	s.cache.release(entry)
	return true
}

// PersistPlansToFile writes the cache's live key set to path, most
// recently used first, for the next process's WarmFromFile. Call
// between Drain/Shutdown and Close (Close empties the cache). The keys
// are encoded as compact JSON one at a time through a buffered writer
// onto a temporary file, renamed into place once whole.
func (s *Server) PersistPlansToFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	// A bufio.Writer keeps its first error, so Flush reports any failed
	// write below.
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteByte('[')
	for i, k := range s.cache.warmKeys() {
		if i > 0 {
			bw.WriteByte(',')
		}
		if err := enc.Encode(k); err != nil {
			return err
		}
	}
	bw.WriteByte(']')
	if err := errors.Join(bw.Flush(), f.Close()); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// warmKeys snapshots the cache's live construction inputs in LRU order
// (most recently used first, so a capacity-trimmed warm pass keeps the
// hottest plans).
func (c *planCache) warmKeys() []warmKey[int32] {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]warmKey[int32], 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		select {
		case <-e.ready:
		default:
			continue // still building; the builder records it next drain
		}
		if e.err != nil || e.dead {
			continue
		}
		wire, ok := opWireNames[e.op.Name]
		if !ok {
			continue
		}
		keys = append(keys, warmKey[int32]{
			Backend: e.key.Backend,
			Op:      wire,
			M:       e.key.M,
			Labels:  e.plan.Labels(),
		})
	}
	return keys
}
