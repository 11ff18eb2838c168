package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// maxPresize bounds what a request's Content-Length may reserve up front:
// the header is a claim, not bytes, and a client announcing 16 MiB must
// not pin 16 MiB per in-flight request before sending them.
const maxPresize = 1 << 20

// decodeStateless decodes a POST /recommend (v is *recommendRequest) or
// POST /recommend/batch (*batchRequest) body. The body is read once: over
// limit is 413 wherever its JSON ends, a read error is 400.
func decodeStateless(w http.ResponseWriter, r *http.Request, limit int64, v any) (int, error) {
	size := int64(bytes.MinRead)
	if r.ContentLength > 0 {
		size += min(r.ContentLength, limit, maxPresize)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", mbe.Limit)
		}
		return http.StatusBadRequest, err
	}
	if err := DecodeBody(buf.Bytes(), v); err != nil {
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// DecodeBody decodes a whole POST /recommend (v is *RecommendRequest) or
// POST /recommend/batch (*BatchRequest) body into v: the scanner takes the
// canonical shape in place, encoding/json whatever it declines. The
// scanner accepts only bytes that encoding/json accepts into a DeepEqual
// value (FuzzDecodeRecommend, in cmd/rrc-server), so the accepted
// language, the decoded values and every error message are
// encoding/json's.
func DecodeBody(body []byte, v any) error {
	s := scanner{b: body}
	switch v := v.(type) {
	case *recommendRequest:
		var req recommendRequest
		if s.request(&req) && s.end() {
			*v = req
			return nil
		}
	case *batchRequest:
		if reqs, ok := s.batch(); ok {
			v.Requests = reqs
			return nil
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return wireTypeError(dec.Decode(v))
}

// wireTypeError keeps encoding/json's type-mismatch text as clients have
// always read it. The text names the Go type, and the request types were
// declared in package main before this package held them.
func wireTypeError(err error) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		return errors.New(strings.ReplaceAll(err.Error(), "serve.", "main."))
	}
	return err
}

// scanner reads {"requests":[{…},…]} or one {…} whose keys are user,
// history, n and omega, each at most once, in any order, with JSON
// whitespace anywhere and integer values. Its methods report false on
// anything else: escaped or other-case keys, null, duplicate or unknown
// keys, fractions, exponents, leading zeros, overflow, trailing bytes.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) batch() ([]recommendRequest, bool) {
	var reqs []recommendRequest
	ok := s.group('{', '}', func() bool {
		key, ok := s.key()
		if !ok || string(key) != "requests" || reqs != nil {
			return false
		}
		reqs = []recommendRequest{}
		return s.group('[', ']', func() bool {
			reqs = append(reqs, recommendRequest{})
			return s.request(&reqs[len(reqs)-1])
		})
	})
	return reqs, ok && s.end()
}

func (s *scanner) request(req *recommendRequest) bool {
	var seen uint8
	return s.group('{', '}', func() bool {
		key, ok := s.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(key) {
		case "user":
			bit = 1
			req.User, ok = s.int()
		case "history":
			bit = 2
			req.History, ok = s.ints()
		case "n":
			bit = 4
			req.N, ok = s.int()
		case "omega":
			bit = 8
			omega, isInt := s.int()
			req.Omega, ok = &omega, isInt
		}
		ok = ok && bit != 0 && seen&bit == 0
		seen |= bit
		return ok
	})
}

// group scans an empty group (open, close) or open elem, elem, … close,
// calling elem to scan each element.
func (s *scanner) group(open, close byte, elem func() bool) bool {
	if !s.tok(open) {
		return false
	}
	if s.tok(close) {
		return true
	}
	for elem() {
		if s.tok(close) {
			return true
		}
		if !s.tok(',') {
			return false
		}
	}
	return false
}

// ints scans an array of integers; [] is an empty, non-nil slice, as
// encoding/json decodes it.
func (s *scanner) ints() ([]int, bool) {
	var out []int
	// Presized from the commas before the next ']': one allocation.
	if end := bytes.IndexByte(s.b[s.i:], ']'); end >= 0 {
		out = make([]int, 0, bytes.Count(s.b[s.i:s.i+end], []byte{','})+1)
	}
	ok := s.group('[', ']', func() bool {
		v, ok := s.int()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// int scans an integer that fits an int, with no fraction, exponent or
// leading zero (so no -0 either) and at most 18 digits, which no int64
// overflows.
func (s *scanner) int() (int, bool) {
	neg := s.tok('-')
	start := s.i
	var v int64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		v = v*10 + int64(s.b[s.i]-'0')
	}
	if neg {
		v = -v
	}
	digits := s.i - start
	ok := digits > 0 && digits <= 18 && (s.b[start] != '0' || digits == 1 && !neg)
	return int(v), ok && int64(int(v)) == v
}

// key scans a member name and its colon. A name with an escape or a
// control byte is declined, so the bytes returned are the name.
func (s *scanner) key() ([]byte, bool) {
	if !s.tok('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' && s.b[s.i] != '\\' && s.b[s.i] >= 0x20 {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	return s.b[start : s.i-1], s.tok(':')
}

// tok skips whitespace and consumes c if it is next.
func (s *scanner) tok(c byte) bool {
	s.ws()
	ok := s.i < len(s.b) && s.b[s.i] == c
	if ok {
		s.i++
	}
	return ok
}

// end skips whitespace and reports whether the input is exhausted.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}
