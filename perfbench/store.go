package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mess-sim/mess/internal/bench"
	"github.com/mess-sim/mess/internal/charz"
	"github.com/mess-sim/mess/internal/core"
	"github.com/mess-sim/mess/internal/curvestore"
	"github.com/mess-sim/mess/internal/platform"
)

const (
	storeFamilies   = 256 // seeded families: four times the hot tier
	storeHotEntries = 64  // the server's in-memory tier
	storeClients    = 2   // closed-loop clients, one connection each
	storeSaveEvery  = 10  // one request in ten saves a new family
)

// storeQuota is the traced run's requests per client.
func storeQuota(o options) int {
	if o.short {
		return 40
	}
	return 1000
}

// seeded returns a random source for one named stream of the seed.
func seeded(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// storeEntry is one family the store serves: the request that names it,
// its key and the canonical CSV every load must reproduce.
type storeEntry struct {
	req charz.Request
	key curvestore.Key
	fam *core.Family
	csv []byte
}

// storeOptions are the full-density sweep settings the fleet's families
// are keyed by.
var storeOptions = func() bench.Options {
	var mixes []bench.Mix
	for p := 0; p <= 100; p += 10 {
		mixes = append(mixes, bench.Mix{StorePercent: p})
	}
	for _, p := range []int{40, 70, 100} {
		mixes = append(mixes, bench.Mix{StorePercent: p, NonTemporal: true})
	}
	return bench.Options{Mixes: mixes, PacesNs: fullPaces}
}()

// newStoreEntry draws a full-density family (14 curves of 21 points) for
// the named machine.
func newStoreEntry(name string, rng *rand.Rand) (*storeEntry, error) {
	spec := platform.Skylake()
	spec.Name = name
	req := charz.Request{Spec: spec, Options: storeOptions}
	ratios := make([]float64, 14)
	for i := range ratios {
		ratios[i] = 0.35 + 0.05*float64(i)
	}
	fam := core.NewSynthetic(core.SyntheticSpec{
		Label:             name,
		UnloadedNs:        70 + 60*rng.Float64(),
		PeakGBs:           60 + 400*rng.Float64(),
		UtilAtReadRatio1:  0.85 + 0.1*rng.Float64(),
		UtilAtReadRatio05: 0.6 + 0.15*rng.Float64(),
		Ratios:            ratios,
		PointsPerCurve:    21,
	})
	// Round-trip once so the family holds exactly what its CSV says.
	var raw bytes.Buffer
	if err := fam.WriteCSV(&raw); err != nil {
		return nil, err
	}
	canon, err := core.ReadCSV(&raw)
	if err != nil {
		return nil, fmt.Errorf("family %s: %w", name, err)
	}
	var csv bytes.Buffer
	if err := canon.WriteCSV(&csv); err != nil {
		return nil, err
	}
	return &storeEntry{req: req, key: charz.Fingerprint(req), fam: canon, csv: csv.Bytes()}, nil
}

type storeInst struct {
	o       options
	dir     string
	server  *curvestore.Server
	hot     *timedStore
	disk    *timedStore
	handler *timedHandler
	srv     *http.Server
	served  chan error // Serve's result
	url     string
	seeded  []*storeEntry
	phases  int // measured phases so far; each saves under its own names
}

// setupStore starts a curve server over Tiered(Memory(64), DiskStore) on
// loopback and seeds its disk tier with 256 families.
func setupStore(o options) (instance, error) {
	dir, err := os.MkdirTemp(o.out, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := charz.NewDiskStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &storeInst{
		o:    o,
		dir:  dir,
		hot:  &timedStore{name: "curvestore.memory", inner: curvestore.NewMemory(storeHotEntries)},
		disk: &timedStore{name: "curvestore.disk", inner: disk},
	}
	// Uploads go straight to disk, as the curve daemon configures it; the
	// hot tier fills on GET by promotion.
	s.server = curvestore.NewServer(curvestore.NewTiered(s.hot, s.disk), curvestore.ServerConfig{SaveStore: s.disk, StatsStore: disk})
	s.handler = &timedHandler{inner: s.server}
	n := storeFamilies
	if o.short {
		n = 32
	}
	rng := seeded(o.seed, "seed")
	for i := 0; i < n; i++ {
		e, err := newStoreEntry(fmt.Sprintf("fleet node %03d", i), rng)
		if err == nil {
			err = disk.Save(context.Background(), e.key, e.fam)
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("seeding the store: %w", err)
		}
		s.seeded = append(s.seeded, e)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for it and removes the store.
func (s *storeInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// refuseRun stands in for the benchmark runner of the lookup services: a
// family missing from the store is a failed lookup, never a simulation.
func refuseRun(context.Context, platform.Spec, bench.Options) (*bench.Result, error) {
	return nil, errors.New("family missing from the store")
}

// measure runs the two closed-loop clients until the budget is spent.
func (s *storeInst) measure(ph *phase, b budget) {
	s.phases++
	s.hot.log.Store(ph.spans)
	s.disk.log.Store(ph.spans)
	s.handler.log.Store(ph.spans)
	hot0, hits0 := s.hot.loads.Load(), s.hot.hits.Load()
	out0 := s.server.Stats().BytesOut
	var remoteHits, lookups, saves atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < storeClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l, sv, hits := s.client(ph, b, c)
			lookups.Add(l)
			saves.Add(sv)
			remoteHits.Add(hits)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	ph.a.done(float64(lookups.Load()), wall)
	ph.b.done(float64(saves.Load()), wall)
	ph.addUnits(float64(lookups.Load()+saves.Load()) / 1000)
	ph.add("charz.remote_hits", float64(remoteHits.Load()))
	ph.add("curvestore.bytes_out", float64(s.server.Stats().BytesOut-out0))
	if loads := s.hot.loads.Load() - hot0; loads > 0 {
		ph.add("curvestore.hot_tier_hit_ratio", float64(s.hot.hits.Load()-hits0)/float64(loads))
	}
}

// client is one closed-loop client: each request waits for the previous
// one. Nine in ten look a family up through a fresh characterization
// service whose only tier is this client's remote store; one in ten
// saves a new family. It returns its lookups, saves and remote hits.
func (s *storeInst) client(ph *phase, b budget, c int) (lookups, saves, remoteHits int64) {
	rng := seeded(s.o.seed, fmt.Sprintf("phase %d client %d", s.phases, c))
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	cl, err := curvestore.NewClient(s.url, curvestore.ClientConfig{
		HTTPClient:        &http.Client{Timeout: 30 * time.Second, Transport: spanTransport{inner: transport}},
		RevalidateEntries: -1, // every lookup transfers the family, as from a fresh process
		Cooldown:          -1, // a failed request fails alone
	})
	if err != nil {
		ph.chk.op("store/client", []string{err.Error()})
		return
	}
	remote := &timedStore{name: "curvestore.client", inner: cl}
	remote.log.Store(ph.spans)
	pool := append([]*storeEntry(nil), s.seeded...)
	ctx := context.Background()
	for n := 0; b.more(n); n++ {
		if rng.Intn(storeSaveEvery) == 0 {
			e, err := newStoreEntry(fmt.Sprintf("fleet node %d-%d-%d", s.phases, c, saves), rng)
			if err != nil {
				ph.chk.op("store/save", []string{err.Error()})
				continue
			}
			t := time.Now()
			err = remote.Save(ctx, e.key, e.fam)
			ph.b.call(time.Since(t))
			saves++
			if err != nil {
				ph.chk.op("store/save", []string{err.Error()})
				continue
			}
			ph.chk.op("store/save", nil)
			pool = append(pool, e)
			continue
		}
		e := pool[rng.Intn(len(pool))]
		svc := charz.New(charz.Config{Remote: remote, Run: refuseRun, Workers: 1})
		sp := ph.spans.begin("charz.characterize", spanRef{})
		t := time.Now()
		art, err := svc.CharacterizeContext(withSpan(ctx, sp.ref()), e.req)
		ph.a.call(time.Since(t))
		sp.end()
		lookups++
		remoteHits += svc.Stats().RemoteHits
		ph.chk.op("store/lookup", lookupProblems(e, art, err))
	}
	return lookups, saves, remoteHits
}

// lookupProblems checks one lookup: served remotely, and byte for byte
// the CSV that was seeded or saved under its key.
func lookupProblems(e *storeEntry, art *charz.Artifact, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	if art.Source != charz.SourceRemote {
		problems = append(problems, fmt.Sprintf("served from %v, want remote", art.Source))
	}
	var csv bytes.Buffer
	if err := art.Family.WriteCSV(&csv); err != nil {
		return append(problems, err.Error())
	}
	if !bytes.Equal(csv.Bytes(), e.csv) {
		problems = append(problems, fmt.Sprintf("family %s differs from the CSV stored under %s", e.req.Spec.Name, e.key.Short()))
	}
	return problems
}
