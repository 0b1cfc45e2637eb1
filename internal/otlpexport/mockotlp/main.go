// Command mockotlp is a tiny validating OTLP/HTTP-JSON trace collector for
// local debugging and the CI otlp-smoke job. It speaks just enough of the
// protocol to receive distjoind's span export, rejects anything outside the
// documented subset (testdata/otlpspan.schema.json), and serves back what
// it received:
//
//	mockotlp -addr :4318
//	distjoind -demo 10000 -otlp http://localhost:4318/v1/traces &
//	curl -s localhost:4318/v1/traces | jq 'keys'   # trace ids received
//	curl -s localhost:4318/stats
//
// -fail-first n rejects the first n export POSTs with 503, for exercising
// the exporter's retry/backoff ladder end to end.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"distjoin/internal/buildinfo"
	"distjoin/internal/otlptest"
)

func main() {
	addr := flag.String("addr", ":4318", "listen address")
	failFirst := flag.Int("fail-first", 0, "reject the first n export POSTs with 503")
	version := flag.Bool("version", false, "print version and build metadata, then exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mockotlp"))
		return
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mockotlp:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mockotlp: collecting on %s\n", ln.Addr())
	srv := &http.Server{
		Handler:           &otlptest.Collector{FailFirst: *failFirst},
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "mockotlp:", err)
		os.Exit(1)
	}
}
