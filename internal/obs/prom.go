package obs

import (
	"fmt"
	"io"
	"strconv"
)

// counterMeta names each counter at the Prometheus edge.
var counterMeta = [numCounters]struct{ name, help string }{
	CFramesEncoded:    {"dxml_frames_encoded_total", "Frames written to a wire."},
	CFramesDecoded:    {"dxml_frames_decoded_total", "Frames read off a wire."},
	CChunksSent:       {"dxml_chunks_sent_total", "Serialization chunks shipped."},
	CChunksAcked:      {"dxml_chunks_acked_total", "Chunk acknowledgements received."},
	CReconnects:       {"dxml_reconnects_total", "Sessions re-dialed after a drop."},
	CHealthUp:         {"dxml_health_up_total", "Health transitions into Live or Recovered."},
	CHealthDown:       {"dxml_health_down_total", "Health transitions into Stale or Down."},
	CEvictions:        {"dxml_evictions_total", "Designs evicted to fit the resident budget."},
	CAdmissions:       {"dxml_admissions_total", "Sessions admitted by the router."},
	CRefusals:         {"dxml_refusals_total", "Sessions refused (unknown design or over capacity)."},
	CEditsApplied:     {"dxml_edits_applied_total", "Live edits applied to a replica."},
	CDocsValidated:    {"dxml_docs_validated_total", "Full-document validations completed."},
	CStreamEvents:     {"dxml_stream_events_total", "Parse events fed through validation runners."},
	CNodesRevalidated: {"dxml_nodes_revalidated_total", "Nodes rechecked by incremental validation."},
	CNodesSkipped:     {"dxml_nodes_skipped_total", "Nodes skipped by incremental validation."},
	CBytesSavedObs:    {"dxml_bytes_saved_total", "Serialization bytes saved by accepted-prefix aborts."},
}

// histMeta names each histogram; seconds-flagged histograms observe
// nanoseconds internally and are scaled to seconds on exposition, per
// Prometheus convention.
var histMeta = [numHists]struct {
	name, help string
	seconds    bool
}{
	HFrameEncodeNs:      {"dxml_frame_encode_seconds", "Frame serialize+write time, per write call (a chunk batch is one).", true},
	HFrameDecodeNs:      {"dxml_frame_decode_seconds", "Frame read+decode time.", true},
	HChunkRTTNs:         {"dxml_chunk_rtt_seconds", "Chunk send to covering cumulative ack.", true},
	HWindowOccupancy:    {"dxml_window_occupancy_chunks", "Unacked chunks in flight at send time.", false},
	HReconnectBackoffNs: {"dxml_reconnect_backoff_seconds", "Delay slept before a re-dial attempt.", true},
	HFragmentOpenNs:     {"dxml_fragment_open_seconds", "Fragment open to first use.", true},
	HFragmentTransferNs: {"dxml_fragment_transfer_seconds", "Fragment open to transfer settled.", true},
	HValidateDocNs:      {"dxml_validate_doc_seconds", "One document's validation wall time.", true},
	HEditApplyNs:        {"dxml_edit_apply_seconds", "Edit apply plus incremental revalidation.", true},
	HAdmissionNs:        {"dxml_admission_latency_seconds", "Session admission (routing) latency.", true},
	HChunkBytes:         {"dxml_chunk_bytes", "Shipped chunk payload sizes.", false},
}

// WritePrometheus renders the collector's counters and histograms in
// Prometheus text exposition format (version 0.0.4). A nil collector
// writes nothing and returns nil.
func WritePrometheus(w io.Writer, c *Collector) error {
	if c == nil {
		return nil
	}
	for id := Counter(0); id < numCounters; id++ {
		m := counterMeta[id]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			m.name, m.help, m.name, m.name, c.Counter(id)); err != nil {
			return err
		}
	}
	for id := Hist(0); id < numHists; id++ {
		m := histMeta[id]
		if err := WriteHistProm(w, m.name, m.help, "", c.Snapshot(id), m.seconds); err != nil {
			return err
		}
	}
	return nil
}

// WriteHistProm renders one histogram snapshot as a Prometheus
// histogram family. labels, when nonempty, is an already-formatted
// label set without braces (e.g. `tenant="eurostat"`) applied to every
// sample line; callers use it for per-tenant rollups. seconds scales
// nanosecond-valued buckets and sum into seconds.
func WriteHistProm(w io.Writer, name, help, labels string, s HistSnapshot, seconds bool) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
			return err
		}
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	// The last bucket's bound is +Inf; its mass is folded into the
	// explicit +Inf line below, and empty buckets are skipped — the
	// cumulative series stays monotone either way and the exposition
	// stays small.
	for i := 0; i < numBuckets-1; i++ {
		cum += s.Buckets[i]
		if s.Buckets[i] == 0 {
			continue
		}
		le := promBound(i, seconds)
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count); err != nil {
		return err
	}
	sum := float64(s.Sum)
	if seconds {
		sum /= 1e9
	}
	lb := ""
	if labels != "" {
		lb = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, lb, sum, name, lb, s.Count)
	return err
}

// EscapeLabelValue escapes s for use inside a quoted Prometheus label
// value. The 0.0.4 text exposition format recognizes exactly three
// escapes — backslash, double quote, and line feed — and label values
// are otherwise raw UTF-8. (Go's %q is NOT a substitute: it emits
// \xNN/\uXXXX escapes for non-printables and non-ASCII, which the
// exposition grammar forbids.)
func EscapeLabelValue(s string) string {
	// Fast path: nothing to escape (the common case for tenant names).
	i := 0
	for ; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == '"' || c == '\n' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := make([]byte, 0, len(s)+8)
	b = append(b, s[:i]...)
	for ; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return string(b)
}

// promBound formats bucket i's upper bound for the `le` label.
func promBound(i int, seconds bool) string {
	if i >= numBuckets-1 {
		return "+Inf"
	}
	b := float64(BucketBound(i))
	if seconds {
		b /= 1e9
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}
