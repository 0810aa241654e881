package exp

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"F10", "S12", "S3", "S42", "S44", "T1", "T2", "T3", "T4", "T5"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("All()[%d].ID = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, err := Get("T1"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestAllExperimentsRunQuick executes every experiment at reduced
// scale and sanity-checks the reports.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	var sb strings.Builder
	if err := RunByIDs(&sb, "all", false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Figure 10", "Section 4.2", "Section 4.4", "Section 3", "Section 1.2",
		"SPINETREE", "multiprefix sort", "slowdown",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}

func TestRunByIDsSelection(t *testing.T) {
	var sb strings.Builder
	if err := RunByIDs(&sb, "S12", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Section 1.2") {
		t.Error("S12 report missing")
	}
	if strings.Contains(sb.String(), "Table 1:") {
		t.Error("unselected experiment ran")
	}
	if err := RunByIDs(&sb, "bogus", false); err == nil {
		t.Error("bogus id accepted")
	}
}

// TestTable2PaperColumns pins Table 2's paper columns: the order-50
// row, which the paper does not report, prints "-" in all three, and a
// row the paper does report prints its values.
func TestTable2PaperColumns(t *testing.T) {
	var sb strings.Builder
	if err := runTable2(&sb, false); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 9 {
			rows[f[0]] = f[6:]
		}
	}
	if got := rows["50"]; strings.Join(got, " ") != "- - -" {
		t.Errorf("order-50 paper columns = %q, want - - -", got)
	}
	if got := rows["1000"]; strings.Join(got, " ") != "1.950 1.660 1.500" {
		t.Errorf("order-1000 paper columns = %q, want 1.950 1.660 1.500", got)
	}
}
