package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// server is one set-up engine with its in-process handler and the
// layouts its set-up computed.
type server struct {
	eng     *service.Engine
	handler http.Handler
	dir     string // disk-tier directory, removed on close
	warm    map[target]*core.Layout
}

// newServer builds an engine for w, as qgdp-serve would, and computes
// the workload's warm layouts through it with `clients` goroutines.
// A non-nil spans wraps the layout store in a timing layer.
func newServer(w *workload, workdir string, clients int, spans *spanLog) (*server, error) {
	srv := &server{warm: make(map[target]*core.Layout, len(w.Warm))}
	var st store.Store
	if w.Tiered {
		dir, err := os.MkdirTemp(workdir, "store-")
		if err != nil {
			return nil, fmt.Errorf("disk tier: %w", err)
		}
		disk, err := store.OpenDisk(dir, store.DiskOptions{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		srv.dir = dir
		st = store.NewTiered(store.NewMemory(w.Sizes.MemTier), disk)
	} else {
		st = store.NewMemory(256) // the engine's default store
	}
	if spans != nil {
		st = &timedStore{inner: st, spans: spans}
	}
	srv.eng = service.New(service.Options{
		Workers:       runtime.GOMAXPROCS(0),
		Store:         st,
		SlowLogWriter: io.Discard,
	})
	srv.handler = service.NewHandler(srv.eng)

	var (
		mu   sync.Mutex
		next atomic.Int64
		errs []error
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.Warm) {
					return
				}
				t := w.Warm[i]
				res, err := srv.eng.Layout(context.Background(), service.LayoutRequest{
					Topology: t.Topology, Strategy: t.Strategy, Config: t.config(),
				})
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("warm %+v: %w", t, err))
				} else {
					srv.warm[t] = res.Layout
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		srv.close()
		return nil, err
	}
	return srv, nil
}

func (s *server) close() {
	s.eng.Close()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// timedStore is the benchmark's timing layer over the engine's layout
// store: it records one span per store call.
type timedStore struct {
	inner store.Store
	spans *spanLog
}

func (s *timedStore) Get(key string) (*core.Layout, bool) {
	defer s.spans.add(-1, "store.get", time.Now())
	return s.inner.Get(key)
}

func (s *timedStore) Peek(key string) (*core.Layout, bool) {
	defer s.spans.add(-1, "store.get", time.Now())
	return s.inner.Peek(key)
}

// GetTraced keeps the engine on the per-tier traced lookup it uses
// when the store offers one.
func (s *timedStore) GetTraced(key string, parent *obs.Span) (*core.Layout, bool) {
	defer s.spans.add(-1, "store.get", time.Now())
	if ts, ok := s.inner.(store.Traced); ok {
		return ts.GetTraced(key, parent)
	}
	return s.inner.Get(key)
}

func (s *timedStore) Put(key string, lay *core.Layout) {
	defer s.spans.add(-1, "store.put", time.Now())
	s.inner.Put(key, lay)
}

func (s *timedStore) Stats() store.Stats { return s.inner.Stats() }
func (s *timedStore) Close() error       { return s.inner.Close() }
