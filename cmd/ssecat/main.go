// Command ssecat reconstructs a simd run artifact from its SSE event
// stream and writes the bytes to stdout. It either submits a job
// asynchronously (POST /v1/runs) and follows the run it lands on, or
// attaches to an already-known run id — in both cases the server
// replays the run's event log from the start, so a late attacher
// reconstructs exactly the same bytes as one that watched live.
//
//	ssecat -addr 127.0.0.1:8080 -job '{"scenario":"chaos"}' > out.txt
//	ssecat -addr 127.0.0.1:8080 -run 1f0c2a9d8e7b6a5c > out.txt
//
// The stream is verified as it is consumed: result chunks must arrive
// in order, the done event must report status "done" with a byte count
// and SHA-256 matching the reassembled artifact. Any violation (or a
// stream that closes without a done event) exits nonzero, so scripts
// can use ssecat as an end-to-end assertion on the live plane.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "simd address (host:port)")
	job := flag.String("job", "", "job config JSON to submit (joins the run if already in flight)")
	runID := flag.String("run", "", "attach to this existing run id instead of submitting")
	wait := flag.Duration("wait", 10*time.Second, "how long to poll /healthz for the daemon to come up")
	flag.Parse()

	if (*job == "") == (*runID == "") {
		fmt.Fprintln(os.Stderr, "ssecat: exactly one of -job or -run is required")
		os.Exit(2)
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: 5 * time.Minute}

	deadline := time.Now().Add(*wait)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "ssecat: daemon at %s not healthy after %v (%v)\n", *addr, *wait, err)
			os.Exit(1)
		}
		time.Sleep(100 * time.Millisecond)
	}

	id := *runID
	if *job != "" {
		var err error
		if id, err = submit(client, base, *job); err != nil {
			fmt.Fprintf(os.Stderr, "ssecat: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ssecat: run %s\n", id)
	}

	artifact, err := follow(client, base, id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssecat: %v\n", err)
		os.Exit(1)
	}
	if _, err := os.Stdout.Write(artifact); err != nil {
		fmt.Fprintf(os.Stderr, "ssecat: write: %v\n", err)
		os.Exit(1)
	}
}

// submit POSTs the job to /v1/runs and returns the run id it was admitted
// (or deduplicated) under. 202 means a fresh or in-flight run, 200 a
// cache hit whose log is replayable either way.
func submit(client *http.Client, base, body string) (string, error) {
	resp, err := client.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.ID == "" {
		return "", fmt.Errorf("submit: bad response (status %d, err %v)", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return info.ID, nil
}

// follow attaches to the run's SSE stream and reassembles the artifact
// from its result chunks, verifying order, length, and digest against
// the done event.
func follow(client *http.Client, base, id string) ([]byte, error) {
	stream, err := client.Get(base + "/v1/runs/" + id + "/events")
	if err != nil {
		return nil, fmt.Errorf("attach: %w", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("attach: HTTP %d", stream.StatusCode)
	}

	var artifact []byte
	var event string
	sawDone := false
	nextChunk := 0
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := line[len("data: "):]
			switch event {
			case "state":
				fmt.Fprintf(os.Stderr, "ssecat: %s\n", data)
			case "result":
				var chunk struct {
					I    int    `json:"i"`
					Data string `json:"data"`
				}
				if err := json.Unmarshal([]byte(data), &chunk); err != nil {
					return nil, fmt.Errorf("result chunk: %w", err)
				}
				if chunk.I != nextChunk {
					return nil, fmt.Errorf("result chunk %d out of order (want %d)", chunk.I, nextChunk)
				}
				nextChunk++
				raw, err := base64.StdEncoding.DecodeString(chunk.Data)
				if err != nil {
					return nil, fmt.Errorf("result chunk %d: %w", chunk.I, err)
				}
				artifact = append(artifact, raw...)
			case "done":
				var done struct {
					Status string `json:"status"`
					Bytes  int    `json:"bytes"`
					SHA256 string `json:"sha256"`
					Error  string `json:"error"`
				}
				if err := json.Unmarshal([]byte(data), &done); err != nil {
					return nil, fmt.Errorf("done event: %w", err)
				}
				if done.Status != "done" {
					return nil, fmt.Errorf("run finished %s: %s", done.Status, done.Error)
				}
				if done.Bytes != len(artifact) {
					return nil, fmt.Errorf("done reports %d bytes, reassembled %d", done.Bytes, len(artifact))
				}
				if sum := sha256.Sum256(artifact); done.SHA256 != hex.EncodeToString(sum[:]) {
					return nil, fmt.Errorf("done reports sha256 %s, reassembled %x", done.SHA256, sum)
				}
				sawDone = true
			case "drain":
				return nil, fmt.Errorf("server drained before the run finished")
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream read: %w", err)
	}
	if !sawDone {
		return nil, fmt.Errorf("stream closed without a done event")
	}
	return artifact, nil
}
