package serve

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	puno "repro"
)

// retryAfterSeconds is the constant backoff hint sent with 429 responses.
// A simulation takes tens of milliseconds, so one second of client backoff
// comfortably drains a full queue; a fixed value keeps the handler free of
// wall-clock reads (the punovet wallclock invariant).
const retryAfterSeconds = "1"

// maxSpecBytes bounds the body of POST /v1/jobs. A Spec is seven scalar
// fields — a few hundred bytes of JSON — so 1 MiB refuses nothing real
// while keeping a hostile client from making the decoder buffer without
// limit.
const maxSpecBytes = 1 << 20

// jobJSON is the wire rendering of a job. Its id is its key: a job is
// addressed by what it computes.
type jobJSON struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Key    string `json:"key"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

func renderJob(j *Job) jobJSON {
	st, errMsg, _ := j.Snapshot()
	key := j.Key.String()
	return jobJSON{ID: key, State: string(st), Key: key, Cached: j.Cached, Error: errMsg}
}

// writeJob writes the job reply: the bytes writeJSON(w, status,
// renderJob(j)) writes, without reflection. Unless the job failed, every
// field is lowercase hex, a state name or true, none of which JSON
// escapes; a failed job's free-text error goes through writeJSON.
func writeJob(w http.ResponseWriter, status int, j *Job) {
	st, _, _ := j.Snapshot()
	if st == StateFailed {
		writeJSON(w, status, renderJob(j))
		return
	}
	var key [2 * len(Key{})]byte
	hex.Encode(key[:], j.Key[:])
	b := make([]byte, 0, 256)
	b = append(b, "{\n  \"id\": \""...)
	b = append(b, key[:]...)
	b = append(b, "\",\n  \"state\": \""...)
	b = append(b, st...)
	b = append(b, "\",\n  \"key\": \""...)
	b = append(b, key[:]...)
	b = append(b, '"')
	if j.Cached {
		b = append(b, ",\n  \"cached\": true"...)
	}
	b = append(b, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a Spec; 200 terminal (cache hit),
//	                            202 accepted, 400 bad spec, 429 queue full
//	GET    /v1/jobs/{id}        job status; ?wait=1 long-polls to terminal
//	GET    /v1/jobs/{id}/result punores/2 bytes; ?format=json decodes
//	GET    /v1/results/{key}    artifact by content address
//	GET    /v1/stats            layer counters
//	GET    /healthz             liveness
//
// A submission cannot be withdrawn: its simulation is deterministic and
// its artifact is useful to the next client, so there is no DELETE.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResultByKey)
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Sprintf("malformed spec: %v", err))
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrBadSpec):
		httpError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", retryAfterSeconds)
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusAccepted
	if st, _, _ := job.Snapshot(); st.Terminal() {
		status = http.StatusOK
	}
	writeJob(w, status, job)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if r.URL.Query().Get("wait") != "" {
		// Long-poll: block until the job is terminal or the client goes
		// away. No timer — the client's context bounds the wait, so this
		// is the one response the server's write timeout must not cut
		// short. A writer without deadlines has none to clear.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
		for {
			st, _, changed := job.Snapshot()
			if st.Terminal() {
				break
			}
			select {
			case <-changed:
			case <-r.Context().Done():
				writeJob(w, http.StatusOK, job)
				return
			}
		}
	}
	writeJob(w, http.StatusOK, job)
}

func (s *Service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	st, errMsg, _ := job.Snapshot()
	switch st {
	case StateDone:
	case StateFailed:
		httpError(w, http.StatusConflict, "job failed: "+errMsg)
		return
	default:
		httpError(w, http.StatusConflict, "job not finished; poll with ?wait=1")
		return
	}
	s.serveArtifact(w, r, job.Key)
}

func (s *Service) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key, err := ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveArtifact(w, r, key)
}

// serveArtifact writes the cached punores/2 bytes for key, decoded to JSON
// on ?format=json. An absent artifact was evicted from a memory-only cache
// (or never computed); 410 tells the client to resubmit (which
// re-simulates deterministically).
func (s *Service) serveArtifact(w http.ResponseWriter, r *http.Request, key Key) {
	data, ok := s.cache.Get(key)
	if !ok {
		httpError(w, http.StatusGone, "result no longer cached; resubmit the spec")
		return
	}
	// Query builds a map; a plain fetch carries no query to parse.
	if r.URL.RawQuery != "" && r.URL.Query().Get("format") == "json" {
		res, err := puno.DecodeResult(data)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Puno-Key", key.String())
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
