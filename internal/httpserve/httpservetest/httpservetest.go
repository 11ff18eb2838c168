// Package httpservetest serves a handler on httpserve for tests, as
// net/http/httptest does on net/http's server.
package httpservetest

import (
	"io"
	"maps"
	"net"
	"net/http"
	"testing"
	"time"

	"tsppr/internal/httpserve"
)

// Server is a handler served on a loopback port. As an http.Handler it
// forwards each request there over a real connection, so a test written
// against a handler drives the production server instead.
type Server struct {
	*httpserve.Server
	URL string
}

// Start serves h until Close or the end of tb.
func Start(tb testing.TB, h http.Handler) *Server {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	s := &Server{httpserve.New(h, httpserve.Config{IdleTimeout: time.Minute}), "http://" + ln.Addr().String()}
	go s.Serve(ln) // returns once Close has closed ln
	tb.Cleanup(func() { s.Close() })
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r = r.Clone(r.Context())
	r.RequestURI, r.URL.Scheme, r.URL.Host = "", "http", s.URL[len("http://"):]
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	maps.Copy(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
