// Tenant CRUD over the admin HTTP surface.
//
//	GET    /tenants                 JSON list of tenant snapshots
//	PUT    /tenants/<id>/rules      install/replace the tenant's rule set
//	                                (body: rule text; ?max-flows=N,
//	                                ?max-buffered=SIZE, ?reset=1)
//	GET    /tenants/<id>/rules      the raw rule text last installed
//	GET    /tenants/<id>            one tenant's snapshot
//	GET    /tenants/<id>/events     tail of the tenant's match ring (?n=)
//	DELETE /tenants/<id>[/rules]    remove the tenant
//
// PUT mirrors POST /reload's rejection semantics exactly: the body is
// compiled and gated (the Compiler callback runs the same parse →
// compile → SelfCheck pipeline as a whole-daemon reload), and a
// rejected set answers 500 with the reason while the tenant's serving
// generation — or its absence — is untouched.

package tenant

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"matchfilter/internal/flow"
	"matchfilter/internal/telemetry"
)

// Compiler turns raw rule text into a validated runner factory plus
// per-rule source strings. Implementations must run the SelfCheck gate
// and return an error on any defect — the handler treats an error as a
// rejected swap.
type Compiler func(rules []byte) (newRunner func() flow.Runner, sources []string, err error)

// maxRulesBody bounds a PUT body; rule sets beyond this are rejected
// before compilation.
const maxRulesBody = 16 << 20

// AdminHandler serves the tenant CRUD surface for this registry. Mount
// it at /tenants (telemetry.Admin.Tenants does).
func (r *Registry) AdminHandler(compile Compiler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(strings.TrimPrefix(req.URL.Path, "/tenants"), "/")
		id, sub, _ := strings.Cut(rest, "/")
		switch {
		case id == "":
			if req.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "list requires GET", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = telemetry.WriteJSONValue(w, struct {
				Tenants []Stats `json:"tenants"`
			}{Tenants: r.List()})
		case sub == "" || sub == "rules":
			r.serveTenant(w, req, compile, id, sub)
		case sub == "events":
			r.serveEvents(w, req, id)
		default:
			http.NotFound(w, req)
		}
	})
}

func (r *Registry) serveTenant(w http.ResponseWriter, req *http.Request, compile Compiler, id, sub string) {
	switch req.Method {
	case http.MethodGet:
		t := r.ByID(id)
		if t == nil {
			http.NotFound(w, req)
			return
		}
		if sub == "rules" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write(t.Rules())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteJSONValue(w, t.Stats())
	case http.MethodPut:
		if sub != "rules" {
			http.Error(w, "PUT targets /tenants/<id>/rules", http.StatusMethodNotAllowed)
			return
		}
		if compile == nil {
			http.Error(w, "no rule compiler wired", http.StatusNotImplemented)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRulesBody))
		if err != nil {
			http.Error(w, fmt.Sprintf("read rules: %v", err), http.StatusBadRequest)
			return
		}
		spec := PutSpec{Rules: body}
		q := req.URL.Query()
		if t := r.ByID(id); t != nil {
			spec.Quota = t.Quota() // absent params keep the current quota
		}
		if v := q.Get("max-flows"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				http.Error(w, "bad max-flows", http.StatusBadRequest)
				return
			}
			spec.Quota.MaxFlows = n
		}
		if v := q.Get("max-buffered"); v != "" {
			n, err := ParseSize(v)
			if err != nil {
				http.Error(w, "bad max-buffered: "+err.Error(), http.StatusBadRequest)
				return
			}
			spec.Quota.MaxBufferedBytes = n
		}
		spec.Reset = q.Get("reset") == "1" || q.Get("reset") == "true"
		// The gate: parse → compile → SelfCheck, exactly as POST /reload.
		// A rejected set must leave the tenant's serving state untouched,
		// which Put guarantees by swapping only after compile succeeds.
		spec.NewRunner, spec.Sources, err = compile(body)
		if err != nil {
			http.Error(w, fmt.Sprintf("rules rejected: %v", err), http.StatusInternalServerError)
			return
		}
		t, gen, err := r.Put(id, spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"tenant\":%q,\"index\":%d,\"generation\":%d}\n", t.ID(), t.Index(), gen)
	case http.MethodDelete:
		if err := r.Delete(id); err != nil {
			code := http.StatusInternalServerError
			if strings.Contains(err.Error(), ErrUnknown.Error()) {
				code = http.StatusNotFound
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"deleted\":%q}\n", id)
	default:
		w.Header().Set("Allow", "GET, PUT, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (r *Registry) serveEvents(w http.ResponseWriter, req *http.Request, id string) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "events requires GET", http.StatusMethodNotAllowed)
		return
	}
	t := r.ByID(id)
	if t == nil {
		http.NotFound(w, req)
		return
	}
	n := 0
	if q := req.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	_ = telemetry.WriteJSONValue(w, struct {
		Total  int64             `json:"total"`
		Events []telemetry.Event `json:"events"`
	}{Total: t.Events().Total(), Events: t.Events().Tail(n)})
}

// ParseSize parses a byte count with an optional K/M/G suffix (binary,
// case-insensitive: 1K = 1024): "268435456", "512k", "256M", "1G". Zero
// is accepted — for a quota it means unlimited; callers that need a
// positive size check for it. It is mfaserve's one size parser: quotas
// (-tenant max-buffered=, PUT ?max-buffered=), -max-memory and ?rate=.
func ParseSize(s string) (int64, error) {
	num, mult := s, int64(1)
	if s != "" {
		switch s[len(s)-1] {
		case 'k', 'K':
			num, mult = s[:len(s)-1], 1<<10
		case 'm', 'M':
			num, mult = s[:len(s)-1], 1<<20
		case 'g', 'G':
			num, mult = s[:len(s)-1], 1<<30
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad size %q (want a byte count like 268435456, 256M or 1G)", s)
	}
	return n * mult, nil
}
