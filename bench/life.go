package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"gameofcoins/client"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

// Every server runs with two keyed tenants, so each request passes
// authentication and admission; client i uses tenantKeys[i]. The rate and
// burst are set so that no run can exhaust them.
var tenantKeys = []string{"gocperf-alpha-key", "gocperf-beta-key"}

const tenantRing = "alpha:gocperf-alpha-key\nbeta:gocperf-beta-key\n"

func trafficConfig() (traffic.Config, error) {
	ring, err := traffic.ParseKeyring(strings.NewReader(tenantRing))
	if err != nil {
		return traffic.Config{}, err
	}
	return traffic.Config{Keyring: ring, Rate: 1e9, Burst: 1 << 30}, nil
}

// life is one gocserve process life: the server, its loopback listener,
// the clients driving it, and its store when the workload has one.
type life struct {
	srv        *server.Server
	hs         *httptest.Server
	file       *store.File
	storeDir   string
	clients    []*client.Client
	transports []*http.Transport
}

// lifeOptions selects what a life runs with.
type lifeOptions struct {
	clients  int
	storeDir string  // "" = no store
	tr       *tracer // nil = untraced
}

// openLife constructs a server (opening and rehydrating its store first)
// and its clients.
func openLife(o lifeOptions) (*life, error) {
	l := &life{storeDir: o.storeDir}
	tc, err := trafficConfig()
	if err != nil {
		return nil, err
	}
	opts := server.Options{Traffic: traffic.New(tc)}
	if o.storeDir != "" {
		var start int64
		if o.tr != nil {
			start = o.tr.now()
		}
		f, err := store.OpenFile(o.storeDir)
		if err != nil {
			return nil, err
		}
		l.file = f
		opts.Store = f
		if o.tr != nil {
			o.tr.record(Span{ID: o.tr.newID(), Name: "store.open", Start: start, End: o.tr.now()})
			opts.Store = tracedStore{Store: f, t: o.tr}
		}
	}
	srv, err := server.NewWithOptions(workers, opts)
	if err != nil {
		if l.file != nil {
			err = errors.Join(err, l.file.Close())
		}
		return nil, err
	}
	l.srv = srv
	var h http.Handler = srv
	if o.tr != nil {
		h = o.tr.handler(srv)
	}
	l.hs = httptest.NewServer(h)
	for i := 0; i < o.clients; i++ {
		base := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
		l.transports = append(l.transports, base)
		var rt http.RoundTripper = base
		if o.tr != nil {
			rt = transport{t: o.tr, base: base}
		}
		l.clients = append(l.clients, client.New(l.hs.URL,
			client.WithHTTPClient(&http.Client{Transport: rt}), client.WithRetryLimit(0), client.WithAPIKey(tenantKeys[i])))
	}
	return l, nil
}

// close stops the listener, then the server (draining its store writes),
// then the store.
func (l *life) close() error {
	for _, t := range l.transports {
		t.CloseIdleConnections()
	}
	l.hs.Close()
	l.srv.Close()
	if l.file != nil {
		if err := l.file.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
	}
	return nil
}

// healthz reads the throttle and persist-failure counters from /healthz.
func healthz(ctx context.Context, l *life) (throttled, persistFails uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.hs.URL+"/healthz", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := l.hs.Client().Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Traffic struct {
			PerClient map[string]struct {
				Throttled uint64 `json:"throttled"`
			} `json:"per_client"`
		} `json:"traffic"`
		PersistFailures uint64 `json:"persist_failures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, 0, fmt.Errorf("decode healthz: %w", err)
	}
	for _, c := range body.Traffic.PerClient {
		throttled += c.Throttled
	}
	return throttled, body.PersistFailures, nil
}
