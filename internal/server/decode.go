package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"ccsched/internal/core"
)

// Request decoding for POST /v1/solve. The body is read once and walked
// once: parseSolveRequest handles the form json.Marshal emits for a
// SolveRequest, hands the instance to core.ScanInstanceJSON and each small
// member to json.Unmarshal over that member's bytes alone. Any other body
// is declined and decoded by json.Decoder over the same bytes, so every
// error text and edge case stays encoding/json's. FuzzSolveRequestJSON
// holds the walker to json.Decoder.

// bodyPresizeLimit caps how much of a declared Content-Length is allocated
// before the bytes arrive; a larger body grows as it is read.
const bodyPresizeLimit = 1 << 20

// decodeSolveRequest reads r's body through the server's body limit and
// decodes it as json.NewDecoder(body).Decode would.
func (s *Server) decodeSolveRequest(w http.ResponseWriter, r *http.Request) (SolveRequest, error) {
	var req SolveRequest
	data, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err == nil && parseSolveRequest(data, &req) {
		return req, nil
	}
	// The decoder sees the same bytes and then the same read error (such as
	// *http.MaxBytesError) that it would have read from the body itself.
	var src io.Reader = bytes.NewReader(data)
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	req = SolveRequest{}
	err = json.NewDecoder(src).Decode(&req)
	return req, err
}

// errReader is a reader that only fails.
type errReader struct{ err error }

// Read returns the reader's error.
func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readBody reads body to its end into one buffer presized from the
// declared length (up to bodyPresizeLimit). It returns the bytes read
// before any error.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	size := 512
	if declared > 0 {
		size = int(min(declared, bodyPresizeLimit)) + 1 // +1: room for the EOF read
	}
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// parseSolveRequest decodes data into *req, which must be zero, and reports
// whether it did. It accepts one JSON object, surrounded by whitespace
// only, whose keys are the exact "instance", "options", "timeout_ms" and
// "soft_timeout_ms", each at most once, none null; the instance must be one
// core.ScanInstanceJSON reads and Validate accepts. On every body it
// accepts, *req equals what json.Decoder decodes; on any other body it
// returns false, leaving *req partly written.
func parseSolveRequest(data []byte, req *SolveRequest) bool {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		return skipSpace(data, i+1) == len(data)
	}
	var seen [4]bool // instance, options, timeout_ms, soft_timeout_ms
	for {
		if i == len(data) || data[i] != '"' {
			return false
		}
		k := bytes.IndexByte(data[i+1:], '"')
		if k < 0 {
			return false
		}
		key := data[i+1 : i+1+k]
		if i = skipSpace(data, i+2+k); i == len(data) || data[i] != ':' {
			return false
		}
		if i = skipSpace(data, i+1); i == len(data) || data[i] == 'n' {
			return false // end of input, or null
		}
		var field int
		var member any // decoded by json.Unmarshal
		switch string(key) {
		case "instance":
			in, n, ok := core.ScanInstanceJSON(data[i:])
			if !ok || in.Validate() != nil {
				return false
			}
			field, req.Instance, i = 0, &in, i+n
		case "options":
			field, member = 1, &req.Options
		case "timeout_ms":
			field, member = 2, &req.TimeoutMs
		case "soft_timeout_ms":
			field, member = 3, &req.SoftTimeoutMs
		default:
			return false
		}
		if seen[field] {
			return false
		}
		seen[field] = true
		if member != nil {
			end := skipValue(data, i)
			if end < 0 || json.Unmarshal(data[i:end], member) != nil {
				return false
			}
			i = end
		}
		if i = skipSpace(data, i); i == len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return skipSpace(data, i+1) == len(data)
		default:
			return false
		}
	}
}

// skipValue returns the offset just past the JSON value that starts at
// data[i], or -1. It only finds where the value ends, following strings,
// escapes and bracket nesting and checking nothing else, so the caller
// validates the bytes (json.Unmarshal does).
func skipValue(data []byte, i int) int {
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if i >= len(data) {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i // the enclosing object ends a scalar
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	if depth > 0 {
		return -1
	}
	return len(data)
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}
