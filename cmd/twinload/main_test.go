package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// replyServer answers every request with the given status, headers and
// body, counting the requests it saw.
func replyServer(t *testing.T, code int, header map[string]string, body string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		for k, v := range header {
			w.Header().Set(k, v)
		}
		w.WriteHeader(code)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv, &n
}

func newDriver(retries int, onRetry func()) *driver {
	return &driver{client: &http.Client{Timeout: 10 * time.Second}, retries: retries, onRetry: onRetry}
}

func TestClassify(t *testing.T) {
	var snap struct {
		ID string `json:"id"`
	}
	cases := []struct {
		name string
		code int
		body string
		want failClass
	}{
		{"shed", http.StatusTooManyRequests, "overloaded", failShed},
		{"client", http.StatusNotFound, "no such session", failClient},
		{"client-bad-request", http.StatusBadRequest, "bad json", failClient},
		{"server", http.StatusInternalServerError, "boom", failServer},
		{"server-unavailable", http.StatusServiceUnavailable, "draining", failServer},
		{"undecodable-2xx", http.StatusOK, "not json", failOther},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, _ := replyServer(t, c.code, nil, c.body)
			err := newDriver(0, func() {}).call("POST", srv.URL+"/session", `{}`, &snap)
			if err == nil {
				t.Fatal("call succeeded, want an error")
			}
			if got := classify(err); got != c.want {
				t.Fatalf("classify(%v) = %s, want %s", err, failNames[got], failNames[c.want])
			}
		})
	}

	t.Run("transport", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		url := srv.URL
		srv.Close() // nothing listens there any more: the dial is refused
		err := newDriver(0, func() {}).call("GET", url+"/session/s000001", "", nil)
		if err == nil {
			t.Fatal("call to a closed server succeeded")
		}
		if got := classify(err); got != failTransport {
			t.Fatalf("classify(%v) = %s, want %s", err, failNames[got], failNames[failTransport])
		}
	})
}

// TestCallRetriesShed: a 429 carrying Retry-After is retried after the
// hinted pause, and the retry is reported once.
func TestCallRetriesShed(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte(`{"id": "s000007"}`))
	}))
	defer srv.Close()

	var retried int
	var snap struct {
		ID string `json:"id"`
	}
	start := time.Now()
	if err := newDriver(2, func() { retried++ }).call("POST", srv.URL+"/session", `{}`, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != "s000007" {
		t.Fatalf("decoded id = %q, want s000007", snap.ID)
	}
	if retried != 1 || n.Load() != 2 {
		t.Fatalf("onRetry fired %d times over %d requests, want 1 over 2", retried, n.Load())
	}
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("retried after %v, before the 1s Retry-After", waited)
	}
}

// TestCallGivesUpAfterRetries: once the retry budget is spent on shed
// replies, call returns the last 429 as a statusError.
func TestCallGivesUpAfterRetries(t *testing.T) {
	srv, n := replyServer(t, http.StatusTooManyRequests, map[string]string{"Retry-After": "1"}, "overloaded")
	var retried int
	err := newDriver(1, func() { retried++ }).call("POST", srv.URL+"/session", `{}`, nil)
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want a 429 statusError", err)
	}
	if se.retryAfter != time.Second {
		t.Fatalf("retryAfter = %v, want 1s", se.retryAfter)
	}
	if retried != 1 || n.Load() != 2 {
		t.Fatalf("onRetry fired %d times over %d requests, want 1 over 2", retried, n.Load())
	}
}
