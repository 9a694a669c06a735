package load

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"wayplace/internal/api"
	"wayplace/internal/fleet"
	"wayplace/internal/serve"
)

// errorThenOK answers its first request 429 (retryable, Retry-After
// 0) followed by 64 KB of JSON whitespace, its second 503 with a 4 KB
// body, and every later one a done batch. It counts accepted TCP
// connections: both error answers must leave the connection reusable.
type errorThenOK struct {
	seen     atomic.Int32
	accepted atomic.Int32
}

func (h *errorThenOK) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch h.seen.Add(1) {
	case 1:
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "busy", Code: api.CodeQueueFull, Retryable: true})
		w.Write(bytes.Repeat([]byte(" "), 64<<10))
	case 2:
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(bytes.Repeat([]byte("x"), 4<<10))
	default:
		json.NewEncoder(w).Encode(api.BatchResponse{APIVersion: api.Version, Status: api.StatusDone})
	}
}

func startErrorThenOK(t *testing.T) (*errorThenOK, *httptest.Server) {
	t.Helper()
	h := &errorThenOK{}
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			h.accepted.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return h, srv
}

// TestClientsKeepAliveOnErrorAnswers is the keep-alive regression for
// every v1 client: a 429 retry, then a 503 with a body, then a 200
// must all travel on one TCP connection. A client that closes an
// error answer without draining it dials anew for the next request.
func TestClientsKeepAliveOnErrorAnswers(t *testing.T) {
	ctx := context.Background()
	pool := Pool([]string{"w"}, SyntheticGeometry(), nil)[:1]
	legs := []struct {
		name string
		run  func(t *testing.T, url string)
	}{
		{"serve.Client", func(t *testing.T, url string) {
			c := &serve.Client{BaseURL: url, HTTP: &http.Client{Transport: &http.Transport{}}}
			if _, err := c.Run(ctx, pool); err == nil {
				t.Fatal("Run through a 503 succeeded")
			}
			if _, err := c.Run(ctx, pool); err != nil {
				t.Fatal(err)
			}
		}},
		{"load.Generator", func(t *testing.T, url string) {
			g, err := New(Options{BaseURL: url, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			client := &http.Client{Transport: &http.Transport{}}
			body, _ := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: pool})
			rng := rand.New(rand.NewSource(1))
			if _, ok := g.submitWithRetry(ctx, client, rng, body); ok {
				t.Fatal("submit through a 503 succeeded")
			}
			if _, ok := g.submitWithRetry(ctx, client, rng, body); !ok {
				t.Fatal("submit after the 503 failed")
			}
		}},
		{"fleet.Coordinator", func(t *testing.T, url string) {
			coord, err := fleet.New(fleet.Options{
				Backends: []string{url},
				HTTP:     &http.Client{Transport: &http.Transport{}},
			})
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(coord.Handler())
			defer front.Close()
			defer coord.Shutdown(ctx)
			body, _ := json.Marshal(api.BatchRequest{Requests: pool})
			for i := 0; i < 2; i++ {
				resp, err := http.Post(front.URL+"/v1/runs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			h, srv := startErrorThenOK(t)
			leg.run(t, srv.URL)
			if n := h.seen.Load(); n != 3 {
				t.Fatalf("server saw %d requests, want 3 (429, 503, 200)", n)
			}
			if n := h.accepted.Load(); n != 1 {
				t.Errorf("server accepted %d connections for 3 requests, want 1: an error answer dropped its keep-alive connection", n)
			}
		})
	}
}
