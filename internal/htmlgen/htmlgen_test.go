package htmlgen

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interaction"
	"repro/internal/qlog"
)

func buildIface(t *testing.T, sqls ...string) *core.Interface {
	t.Helper()
	iface, err := core.Generate(qlog.FromSQL(sqls...), core.Options{
		Miner: interaction.Options{WindowSize: 0, LCAPrune: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

func TestCompileContainsWidgetsAndState(t *testing.T) {
	iface := buildIface(t,
		"SELECT a FROM t WHERE x = 1 AND name = 'p'",
		"SELECT a FROM t WHERE x = 2 AND name = 'q'",
		"SELECT a FROM t WHERE x = 9 AND name = 'r'",
		"SELECT a FROM t WHERE x = 4 AND name = 'p'",
		"SELECT a FROM t WHERE x = 7 AND name = 'q'",
	)
	page, err := Compile(iface, Page{Title: "Test Interface"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "<title>Test Interface</title>") {
		t.Fatal("missing title")
	}
	if !strings.Contains(page, "type=\"range\"") {
		t.Fatal("numeric widget should render a range input")
	}
	if !strings.Contains(page, "PI_STATE") || !strings.Contains(page, "\"initial\"") {
		t.Fatal("missing embedded state")
	}
	// The embedded state must be valid JSON.
	m := regexp.MustCompile(`const PI_STATE = (\{.*?\});\n`).FindStringSubmatch(page)
	if m == nil {
		t.Fatal("PI_STATE not found")
	}
	var state map[string]any
	if err := json.Unmarshal([]byte(m[1]), &state); err != nil {
		t.Fatalf("PI_STATE not valid JSON: %v", err)
	}
	if _, ok := state["widgets"]; !ok {
		t.Fatal("state missing widgets")
	}
	if sqlStr, _ := state["initSql"].(string); !strings.Contains(sqlStr, "SELECT a FROM t") {
		t.Fatalf("initSql = %q", sqlStr)
	}
}

func TestCompileEscapesHTML(t *testing.T) {
	iface := buildIface(t,
		"SELECT a FROM t WHERE name = '<script>alert(1)</script>'",
		"SELECT a FROM t WHERE name = 'b'",
		"SELECT a FROM t WHERE name = 'c'",
	)
	page, err := Compile(iface, Page{Title: "<script>bad</script>"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page, "<script>alert(1)</script>") ||
		strings.Contains(page, "<title><script>") {
		t.Fatal("unescaped user content in page")
	}
}

func TestCompileEveryWidgetKind(t *testing.T) {
	cases := []struct {
		frag string
		log  []string
	}{
		{"type=\"range\"", []string{ // slider: numeric literal changes
			"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
			"SELECT * FROM SpecLineIndex WHERE specObjId = 0x199",
			"SELECT * FROM SpecLineIndex WHERE specObjId = 0x3"}},
		{"<button", []string{ // toggle: two-option table change
			"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
			"SELECT * FROM XCRedshift WHERE specObjId = 0x400"}},
		{"<select", []string{ // drop-down: 3-option string domain
			"SELECT ew FROM SpecLineIndex WHERE name = 'a'",
			"SELECT ew FROM SpecLineIndex WHERE name = 'b'",
			"SELECT ew FROM SpecLineIndex WHERE name = 'c'"}},
	}
	for _, c := range cases {
		iface := buildIface(t, c.log...)
		page, err := Compile(iface, Page{Title: "SDSS"})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(page, c.frag) {
			t.Errorf("page missing %s\nwidgets: %v", c.frag, iface.Widgets)
		}
	}
}

func TestEmptyInterfaceCompiles(t *testing.T) {
	iface := buildIface(t, "SELECT a FROM t")
	page, err := Compile(iface, Page{Title: "Empty"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "PI_STATE") {
		t.Fatal("page should still carry state for q0")
	}
}

func TestCompileServedLiveEmbedsEpochPolling(t *testing.T) {
	iface := buildIface(t,
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2")
	page, err := Compile(iface, Page{
		Title: "Live", QueryEndpoint: "/interfaces/x/query", EpochEndpoint: "/interfaces/x/epoch", Epoch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`"endpoint":"/interfaces/x/query"`,
		`"epochEndpoint":"/interfaces/x/epoch"`,
		`"epoch":3`,
		"location.reload()",
	} {
		if !strings.Contains(page, frag) {
			t.Errorf("live page missing %s", frag)
		}
	}
	// A plain served page neither embeds an epoch nor polls.
	static, err := Compile(iface, Page{Title: "Static", QueryEndpoint: "/interfaces/x/query"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(static, "epochEndpoint\":") {
		t.Error("static served page should not carry an epoch endpoint")
	}
}

// TestServedPageToken: an explicitly embedded token lands in PI_STATE
// and the script attaches it as a bearer header; a token-less page
// carries no token field but still knows how to pick one up from its
// URL (fragment or query string).
func TestServedPageToken(t *testing.T) {
	iface := buildIface(t,
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2")
	trusted, err := Compile(iface, Page{
		Title: "Trusted", QueryEndpoint: "/v1/interfaces/x/query", Token: "sesame",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`"token":"sesame"`,
		`"Authorization"] = "Bearer " + PI_TOKEN`,
	} {
		if !strings.Contains(trusted, frag) {
			t.Errorf("trusted page missing %s", frag)
		}
	}
	open, err := Compile(iface, Page{Title: "Open", QueryEndpoint: "/v1/interfaces/x/query"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(open, `"token":"`) {
		t.Error("open page embeds a token")
	}
	for _, frag := range []string{`location.hash`, `location.search`, `h.get("token")`} {
		if !strings.Contains(open, frag) {
			t.Errorf("open page cannot pick a token from the URL: missing %s", frag)
		}
	}
	for _, bad := range []Page{{Title: "Bad", Token: "sesame"}, {Title: "Bad", EpochEndpoint: "/v1/interfaces/x/epoch"}} {
		if _, err := Compile(iface, bad); err == nil {
			t.Errorf("served page without a query endpoint accepted: %+v", bad)
		}
	}
}

// TestCompileGolden pins every page shape byte for byte: each case's
// SHA-256 was recorded from the six entry points the page compiler had
// before they became one Compile (static, deps, served, served+deps,
// served-live, served with token), so folding them changed no output.
func TestCompileGolden(t *testing.T) {
	iface := buildIface(t,
		"SELECT a, COUNT(b) FROM t WHERE x = 1 AND name = 'p' GROUP BY a",
		"SELECT a, COUNT(b) FROM t WHERE x = 2 AND name = 'q' GROUP BY a",
		"SELECT a, COUNT(b) FROM t WHERE x = 9 AND name = 'r' GROUP BY c",
		"SELECT a, COUNT(b) FROM t WHERE x = 4 AND name = 'p' GROUP BY a",
	)
	deps := []Dependency{{Widget: 1, On: 0, ActiveOptions: []int{0, 2}}}
	const q, e = "/v1/interfaces/g/query", "/v1/interfaces/g/epoch"
	const title = "Golden <page>"
	cases := []struct {
		name, sha256 string
		page         Page
	}{
		{"static", "0844fead3568508c12a3ffb8b98818bc52a8235b38d3f9ab363ed357a754af5c",
			Page{Title: title}},
		{"deps", "bd26241a53dc387128c5ccf2dc40bacbf98cc53add644d1ddc00003c860c8b5e",
			Page{Title: title, Deps: deps}},
		{"served", "5c17eefac7e443276d7817f3b51a5ccac8065fc1191e6f2e4947c51e2d4cefb6",
			Page{Title: title, QueryEndpoint: q}},
		{"served+deps", "61e67d5c97e336810f3bd06bb1268942c99fab0500531514d8606579ea19d6a2",
			Page{Title: title, QueryEndpoint: q, Deps: deps}},
		{"served-live", "cb304f54a488a6151f2fc0e9cdd8deb5dbab7e486da118002a6b4f96a4d66921",
			Page{Title: title, QueryEndpoint: q, EpochEndpoint: e, Epoch: 7}},
		{"token", "2fca459f52e4ce1b9ef0ce66efb67973448a011a734cf3e52ed247e721cc1fc1",
			Page{Title: title, QueryEndpoint: q, Token: "sesame"}},
	}
	for _, c := range cases {
		page, err := Compile(iface, c.page)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(page))); got != c.sha256 {
			t.Errorf("%s page sha256 = %s, want %s", c.name, got, c.sha256)
		}
	}
}
