package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bohrium"
	"bohrium/internal/server"
	"bohrium/internal/server/api"
	"bohrium/internal/server/middleware"
)

// BenchmarkHandleBatch measures one synchronous batch submission through
// the daemon's whole handler chain (auth, quota, parse, plan lookup,
// execute, JSON reply), driven in process with httptest. After the first
// iteration every batch is a plan hit: the steady state of a tenant
// replaying a listing.
func BenchmarkHandleBatch(b *testing.B) {
	all := listings(b)
	for _, name := range []string{"quickstart", "heatdiffusion"} {
		src := all[name]
		for _, optimize := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/optimize=%v", name, optimize), func(b *testing.B) {
				rt := bohrium.NewRuntime(nil)
				defer rt.Close()
				srv, err := server.New(server.Config{
					Runtime:         rt,
					Auth:            middleware.StaticTokens{"secret-a": "tenant-a"},
					JanitorInterval: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				h := srv.Handler()
				serve := func(method, path, body string) *httptest.ResponseRecorder {
					req := httptest.NewRequest(method, path, strings.NewReader(body))
					req.Header.Set("Authorization", "Bearer secret-a")
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					return rec
				}

				create, _ := json.Marshal(api.CreateSession{Optimize: optimize})
				rec := serve("POST", "/v1/sessions", string(create))
				var sess api.Session
				if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil || rec.Code != http.StatusCreated {
					b.Fatalf("create session: %d %s", rec.Code, rec.Body)
				}
				path := "/v1/sessions/" + sess.ID + "/batches"

				b.ReportAllocs()
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rec := serve("POST", path, src); rec.Code != http.StatusOK {
						b.Fatalf("batch: %d %s", rec.Code, rec.Body)
					}
				}
			})
		}
	}
}
