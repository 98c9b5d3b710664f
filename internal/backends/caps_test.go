package backends_test

import (
	"os"
	"strings"
	"testing"

	"pacer/internal/backends"
)

// TestCapabilityMatrixMatchesDocs pins the docs/backends.md mounting
// matrix to the live registry: every registered backend has a row, and the
// row's mount, dismissal-chain, and sync-dismissal columns state
// exactly what probing the constructed backend reports — the chain's
// stage names in the order the front-end tries them. The matrix cannot
// silently drift from the code.
func TestCapabilityMatrixMatchesDocs(t *testing.T) {
	raw, err := os.ReadFile("../../docs/backends.md")
	if err != nil {
		t.Fatalf("reading docs: %v", err)
	}
	rows := parseMatrix(t, string(raw))

	for _, c := range backends.All() {
		row, ok := rows[c.Name]
		if !ok {
			t.Errorf("backend %q registered but missing from the docs matrix", c.Name)
			continue
		}
		if row.mount != c.Mount() {
			t.Errorf("%s: docs say mount %q, registry probe says %q", c.Name, row.mount, c.Mount())
		}
		wantSync := "no"
		if c.SyncNoOp {
			wantSync = "yes"
		}
		if row.sync != wantSync {
			t.Errorf("%s: docs sync-dismissal column %q, registry probe says %q", c.Name, row.sync, wantSync)
		}
		if want := chainCell(c.Stages); row.chain != want {
			t.Errorf("%s: docs dismissal chain %q, registry probe says %q", c.Name, row.chain, want)
		}
	}
	for name := range rows {
		if !backends.Known(name) {
			t.Errorf("docs matrix lists %q, which is not a registered backend", name)
		}
	}
}

// TestDismissalChains pins each backend's declared dismissal chain: the
// stages and their order are part of what a backend is, and `racereplay
// backends` prints them.
func TestDismissalChains(t *testing.T) {
	want := map[string]string{
		"pacer":     "`no-metadata`",
		"o1samples": "`no-metadata`, `same-epoch`",
		"fasttrack": "`same-epoch`, `owned-access`",
		"literace":  "`burst-skip`",
	}
	for _, c := range backends.All() {
		w, ok := want[c.Name]
		if !ok {
			w = "—"
		}
		if got := chainCell(c.Stages); got != w {
			t.Errorf("%s: dismissal chain %s, want %s", c.Name, got, w)
		}
	}
}

// chainCell renders a dismissal chain as the docs matrix writes it: the
// backtick-quoted stage names in order, or a dash for none.
func chainCell(stages []string) string {
	if len(stages) == 0 {
		return "—"
	}
	return "`" + strings.Join(stages, "`, `") + "`"
}

type matrixRow struct{ mount, chain, sync string }

// parseMatrix extracts the backend table: rows of the form
// `| `name` | mount | chain | sync |`.
func parseMatrix(t *testing.T, doc string) map[string]matrixRow {
	t.Helper()
	rows := map[string]matrixRow{}
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			continue
		}
		rows[strings.Trim(strings.TrimSpace(cells[0]), "`")] = matrixRow{
			mount: strings.TrimSpace(cells[1]),
			chain: strings.TrimSpace(cells[2]),
			sync:  strings.TrimSpace(cells[3]),
		}
	}
	if len(rows) == 0 {
		t.Fatal("no matrix rows parsed from docs/backends.md")
	}
	return rows
}

// TestShardedMatrixComplete pins that every backend but the O(n^2)
// teaching baseline (generic) mounts sharded.
func TestShardedMatrixComplete(t *testing.T) {
	wantSharded := map[string]bool{
		"pacer": true, "fasttrack": true, "literace": true, "o1samples": true,
	}
	for _, c := range backends.All() {
		if wantSharded[c.Name] && !c.Sharded {
			t.Errorf("%s: must mount sharded", c.Name)
		}
	}
}
