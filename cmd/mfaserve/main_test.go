package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"matchfilter/internal/engine"
	"matchfilter/internal/tenant"
)

// serving starts a one-shard engine on the default rules in path, with
// a bound tenant registry and its admin handler.
func serving(t *testing.T, g gate, path string) (*engine.Engine, *tenant.Registry, *httptest.Server) {
	t.Helper()
	lr, err := g.load(ruleSet{file: path})
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(tenant.Config{})
	e := engine.New(engine.Config{Shards: 1, Tenants: reg}, lr.newRunner, nil)
	reg.Bind(e)
	srv := httptest.NewServer(reg.AdminHandler(g.compileBody))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, reg, srv
}

func writeRules(t *testing.T, path, text string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

func put(t *testing.T, srv *httptest.Server, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b.String()
}

// Every way a rule set enters the daemon reports a bad rule as
// name:line — -rules at startup, POST /reload (and SIGHUP), -tenant and
// PUT /tenants/<id>/rules — because they all go through one gate.
func TestGateErrorsNameTheLine(t *testing.T) {
	var g gate
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.txt")
	bad := "attack.*payload\n\n# note\r\nbad(rule\n"

	writeRules(t, path, bad)
	if _, err := g.load(ruleSet{file: path}); err == nil || !strings.Contains(err.Error(), path+":4: ") {
		t.Errorf("-rules: error %v, want %s:4", err, path)
	}
	if _, err := parseTenantSpec("acme="+path, g); err == nil || !strings.Contains(err.Error(), path+":4: ") {
		t.Errorf("-tenant: error %v, want %s:4", err, path)
	}

	writeRules(t, path, "attack.*payload\n")
	e, _, srv := serving(t, g, path)
	var cur atomic.Pointer[loadedRules]
	rl := &reloader{gate: g, rules: ruleSet{file: path}, e: e, cur: &cur}
	writeRules(t, path, bad)
	if _, err := rl.Reload(); err == nil || !strings.Contains(err.Error(), path+":4: ") {
		t.Errorf("POST /reload: error %v, want %s:4", err, path)
	}
	if e.Generation() != 1 || rl.fail.Load() != 1 || cur.Load() != nil {
		t.Errorf("rejected reload: generation %d, failures %d", e.Generation(), rl.fail.Load())
	}

	if code, body := put(t, srv, "/tenants/acme/rules", bad); code/100 == 2 || !strings.Contains(body, "body:4: ") {
		t.Errorf("PUT: %d %q, want a rejection naming body:4", code, body)
	}
}

// -tenant max-buffered= and PUT ?max-buffered= share one size parser, so
// both accept exactly the same spellings, and 0 means unlimited in both.
func TestTenantSizeSpellings(t *testing.T) {
	var g gate
	path := filepath.Join(t.TempDir(), "rules.txt")
	writeRules(t, path, "attack.*payload\n")
	_, reg, srv := serving(t, g, path)
	for _, tc := range []struct {
		in   string
		want int64 // -1: rejected
	}{
		{"0", 0},
		{"4096", 4096},
		{"512k", 512 << 10},
		{"512K", 512 << 10},
		{"64m", 64 << 20},
		{"64M", 64 << 20},
		{"1g", 1 << 30},
		{"1G", 1 << 30},
		{"-1", -1},
		{"1.5M", -1},
		{"12KB", -1},
		{"M", -1},
		{"lots", -1},
		{"9999999999G", -1},
	} {
		ti, err := parseTenantSpec("acme="+path+",max-buffered="+tc.in, g)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("-tenant max-buffered=%s accepted", tc.in)
		case tc.want >= 0 && (err != nil || ti.spec.Quota.MaxBufferedBytes != tc.want):
			t.Errorf("-tenant max-buffered=%s = %d, %v; want %d", tc.in, ti.spec.Quota.MaxBufferedBytes, err, tc.want)
		}

		code, body := put(t, srv, "/tenants/acme/rules?max-buffered="+tc.in, "attack.*payload\n")
		switch {
		case tc.want < 0 && code/100 == 2:
			t.Errorf("PUT ?max-buffered=%s accepted", tc.in)
		case tc.want >= 0 && code/100 != 2:
			t.Errorf("PUT ?max-buffered=%s: %d %q", tc.in, code, body)
		case tc.want >= 0 && reg.ByID("acme").Quota().MaxBufferedBytes != tc.want:
			t.Errorf("PUT ?max-buffered=%s = %d, want %d", tc.in, reg.ByID("acme").Quota().MaxBufferedBytes, tc.want)
		}
	}
}

// -tenant id=set:NAME loads the built-in set directly and serves it as
// rule text on GET /tenants/<id>/rules.
func TestTenantBuiltinSet(t *testing.T) {
	ti, err := parseTenantSpec("acme=set:C8", gate{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(ti.spec.Rules), "\n"), "\n")
	if len(ti.spec.Sources) != 8 || len(lines) != 8 || lines[7] != ti.spec.Sources[7] {
		t.Errorf("set:C8: %d sources, rule text %q", len(ti.spec.Sources), ti.spec.Rules)
	}
}
