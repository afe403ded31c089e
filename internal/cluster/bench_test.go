package cluster

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// BenchmarkGatewayDetect measures bulk detection over HTTP: concurrent
// clients post 256-record NDJSON bodies straight to one replica
// ("direct") and through the gateway over two replicas ("gateway"), so
// the gap between the two is the coordinator hop. Bulk bodies are the
// one gateway shape servebench's live-gateway workload (16-record
// bodies) does not send.
func BenchmarkGatewayDetect(b *testing.B) {
	const bulk = 256
	pipe, recs := testPipeline(b)
	body := ndjson(b, recs[:bulk])
	fleet := startFleet(b, 2, pipe)
	_, front := startGateway(b, fleet, nil)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()
	for _, target := range []struct{ name, url string }{
		{"direct", fleet[0].srv.URL},
		{"gateway", front.URL},
	} {
		b.Run(target.name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := client.Post(target.url+"/detect", "application/x-ndjson", bytes.NewReader(body))
					if err != nil {
						b.Error(err)
						return
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						b.Errorf("status %d, read error %v", resp.StatusCode, err)
						return
					}
				}
			})
			b.ReportMetric(float64(bulk)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
		})
	}
}
