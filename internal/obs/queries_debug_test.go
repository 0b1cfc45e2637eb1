package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"distjoin/internal/qtrace"
)

// TestDebugQueriesConsistencyUnderLoad hits /debug/queries while many
// concurrent short queries complete, asserting every response the handler
// ever serves is internally consistent: valid JSON, at most FlightSize
// traces, newest first by sequence, no duplicate ids within one snapshot.
// This is the observability contract the flight recorder promises the
// operator while a busy cursor service churns underneath.
func TestDebugQueriesConsistencyUnderLoad(t *testing.T) {
	const flightSize = 8
	tr := qtrace.New(qtrace.Config{FlightSize: flightSize})
	ts := httptest.NewServer(QueriesHandler("/debug/queries", tr))
	defer ts.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := tr.Begin("join", fmt.Sprintf("w%d-%04d", w, i))
				q.Finish(qtrace.Report{}, nil)
				// Throttle: churn should contend with the readers, not
				// starve them (the race detector makes spinning brutal).
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				resp, err := ts.Client().Get(ts.URL + "/debug/queries")
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("status %d err %v", resp.StatusCode, err)
					return
				}
				var traces []qtrace.QueryTrace
				if err := json.Unmarshal(raw, &traces); err != nil {
					t.Errorf("snapshot is not valid JSON: %v\n%s", err, raw)
					return
				}
				if len(traces) > flightSize {
					t.Errorf("snapshot has %d traces > FlightSize %d", len(traces), flightSize)
					return
				}
				seen := make(map[string]bool, len(traces))
				for _, qt := range traces {
					if qt.ID == "" || qt.Kind != "join" {
						t.Errorf("malformed trace in snapshot: %+v", qt)
						return
					}
					if seen[qt.ID] {
						t.Errorf("duplicate id %s in one snapshot", qt.ID)
						return
					}
					seen[qt.ID] = true
				}
				// Every trace in the snapshot must resolve individually too
				// (it may have been evicted between the two requests — only
				// 200 and 404 are acceptable, never a 500 or a torn body).
				if len(traces) > 0 {
					one, err := ts.Client().Get(ts.URL + "/debug/queries/" + traces[0].ID)
					if err != nil {
						t.Error(err)
						return
					}
					body, _ := io.ReadAll(one.Body)
					one.Body.Close()
					switch one.StatusCode {
					case 200:
						var single qtrace.QueryTrace
						if err := json.Unmarshal(body, &single); err != nil {
							t.Errorf("single trace torn: %v\n%s", err, body)
							return
						}
					case 404: // evicted between list and get — fine
					default:
						t.Errorf("single trace status %d: %s", one.StatusCode, body)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	if tr.Active() != 0 {
		t.Fatalf("active queries after load: %d", tr.Active())
	}
}
