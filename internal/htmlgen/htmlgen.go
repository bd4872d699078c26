// Package htmlgen compiles a generated interface into a standalone
// HTML+JavaScript page (§5.3: "we then compile the interface into a web
// application"). Widgets are rendered as native browser controls; each
// interaction swaps the widget's current value into the query AST at the
// widget's path, re-renders the SQL, and calls the page's exec() hook
// (a stub that applications replace with a real endpoint).
package htmlgen

import (
	"encoding/json"
	"fmt"
	"html"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/widgets"
)

// Dependency mirrors speculate.Dependency without importing it (the
// compiler only needs the indices): the widget at Widget is enabled
// only while the widget at On is in one of the ActiveOptions states.
type Dependency struct {
	Widget, On    int
	ActiveOptions []int
}

// Page configures one compiled page. The zero Page but a Title is the
// static §5.3 compilation, whose exec() hook is a stub.
//
// With a QueryEndpoint the hook is live: every interaction POSTs the
// current widget bindings there (the serving layer's
// POST /v1/interfaces/{id}/query) and renders the returned rows. With
// an EpochEndpoint as well (GET, returning {"epoch": n}) the page,
// stamped with the Epoch it was compiled at, polls for hot swaps and
// reloads itself when the epoch bumps, picking up the widened widget
// domains under the same URL.
//
// Auth: a page served from an open GET endpoint must NOT embed the
// token (anyone who can fetch the page would learn it) — leave Token
// empty; the page script also picks a token up from the URL fragment
// or query string (#token=... / ?token=...), so operators hand out
// tokenized links while the page itself stays secret-free. Set Token
// only when compiling a page for a trusted destination.
type Page struct {
	Title string
	// Deps disables a dependent widget's controls while its controlling
	// widget is in a non-supporting state (§4.5 / Figure 5d: "the
	// slider is only active when the TOP clause is enabled").
	Deps          []Dependency
	QueryEndpoint string // where exec() POSTs widget bindings ("" = stub hook)
	EpochEndpoint string // epoch polling URL ("" disables the reload loop)
	Epoch         uint64 // epoch the page was compiled at
	Token         string // optional bearer token embedded in the page
}

// Compile renders the interface as a self-contained HTML document. A
// page that polls an epoch or carries a token must have a query
// endpoint.
func Compile(iface *core.Interface, p Page) (string, error) {
	if p.QueryEndpoint == "" && (p.EpochEndpoint != "" || p.Token != "") {
		return "", fmt.Errorf("htmlgen: served page needs a query endpoint")
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(p.Title))
	b.WriteString(styleBlock)
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(p.Title))
	b.WriteString("<div id=\"widgets\">\n")
	for i, w := range iface.Widgets {
		ctrl, err := renderWidget(i, w)
		if err != nil {
			return "", err
		}
		b.WriteString(ctrl)
	}
	b.WriteString("</div>\n")
	b.WriteString("<pre id=\"sql\"></pre>\n<div id=\"result\"></div>\n")

	state, err := pageState(iface, p)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "<script>\nconst PI_STATE = %s;\n%s</script>\n", state, scriptBlock)
	b.WriteString("</body>\n</html>\n")
	return b.String(), nil
}

// pageState serializes the initial query AST, each widget's path and
// domain (as both AST JSON and rendered SQL fragments), and the widget
// dependencies for the page script.
func pageState(iface *core.Interface, cfg Page) (string, error) {
	type option struct {
		Label string          `json:"label"`
		AST   json.RawMessage `json:"ast"`
	}
	type widgetState struct {
		Kind    string   `json:"kind"`
		Label   string   `json:"label"`
		Path    string   `json:"path"`
		Options []option `json:"options"`
		Min     float64  `json:"min,omitempty"`
		Max     float64  `json:"max,omitempty"`
	}
	type page struct {
		Initial       json.RawMessage `json:"initial"`
		InitSQL       string          `json:"initSql"`
		Widgets       []widgetState   `json:"widgets"`
		Deps          []Dependency    `json:"deps,omitempty"`
		Endpoint      string          `json:"endpoint,omitempty"`
		EpochEndpoint string          `json:"epochEndpoint,omitempty"`
		Epoch         uint64          `json:"epoch,omitempty"`
		Token         string          `json:"token,omitempty"`
	}
	p := page{
		InitSQL: ast.SQL(iface.Initial), Deps: cfg.Deps, Endpoint: cfg.QueryEndpoint,
		EpochEndpoint: cfg.EpochEndpoint, Epoch: cfg.Epoch, Token: cfg.Token,
	}
	ini, err := json.Marshal(iface.Initial)
	if err != nil {
		return "", err
	}
	p.Initial = ini
	for _, w := range iface.Widgets {
		ws := widgetState{
			Kind:  w.Type.Name,
			Label: Label(w),
			Path:  w.Path.String(),
		}
		if w.Domain.IsNumericRange() {
			ws.Min, ws.Max = w.Domain.Range()
		}
		for _, v := range w.Domain.Values() {
			lbl := "(absent)"
			var raw json.RawMessage = []byte("null")
			if v != nil {
				lbl = ast.SQL(v)
				raw, err = json.Marshal(v)
				if err != nil {
					return "", err
				}
			}
			ws.Options = append(ws.Options, option{Label: lbl, AST: raw})
		}
		p.Widgets = append(p.Widgets, ws)
	}
	out, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// Label derives a human-readable caption from the widget path and
// domain (the editor of §5.3 lets users override it; the widget's own
// Label wins when set). The serving layer reuses it for the JSON API.
func Label(w *mapper.MappedWidget) string {
	if w.Label != "" {
		return w.Label
	}
	if len(w.Path) == 0 {
		return "query"
	}
	switch w.Path[0] {
	case ast.SlotProject:
		return "projection"
	case ast.SlotFrom:
		return "from"
	case ast.SlotWhere:
		return "filter"
	case ast.SlotGroupBy:
		return "grouping"
	case ast.SlotHaving:
		return "having"
	case ast.SlotOrderBy:
		return "ordering"
	case ast.SlotLimit:
		return "limit"
	}
	return "widget " + w.Path.String()
}

// renderWidget emits the HTML control for one widget.
func renderWidget(idx int, w *mapper.MappedWidget) (string, error) {
	var b strings.Builder
	label := html.EscapeString(Label(w))
	fmt.Fprintf(&b, "<div class=\"widget\" data-widget=\"%d\">\n<label>%s</label>\n", idx, label)
	vals := w.Domain.Values()
	switch w.Type {
	case widgets.Slider, widgets.RangeSlider:
		lo, hi := w.Domain.Range()
		fmt.Fprintf(&b,
			"<input type=\"range\" min=\"%g\" max=\"%g\" step=\"any\" oninput=\"piSetNumber(%d, this.value)\">\n",
			lo, hi, idx)
		fmt.Fprintf(&b, "<span class=\"value\" id=\"wval-%d\">%g</span>\n", idx, lo)
	case widgets.Textbox:
		fmt.Fprintf(&b, "<input type=\"text\" onchange=\"piSetText(%d, this.value)\">\n", idx)
	case widgets.ToggleButton, widgets.Checkbox:
		fmt.Fprintf(&b, "<button onclick=\"piToggle(%d)\" id=\"wtog-%d\">%s</button>\n",
			idx, idx, optionCaption(vals, 0))
	case widgets.RadioButton:
		for oi := range vals {
			fmt.Fprintf(&b,
				"<label class=\"opt\"><input type=\"radio\" name=\"w%d\" onchange=\"piSelect(%d, %d)\">%s</label>\n",
				idx, idx, oi, optionCaption(vals, oi))
		}
	case widgets.CheckboxList:
		for oi := range vals {
			fmt.Fprintf(&b,
				"<label class=\"opt\"><input type=\"checkbox\" onchange=\"piSelect(%d, %d)\">%s</label>\n",
				idx, idx, optionCaption(vals, oi))
		}
	default: // drop-down, drag-and-drop fall back to a select control
		fmt.Fprintf(&b, "<select onchange=\"piSelect(%d, this.selectedIndex)\">\n", idx)
		for oi := range vals {
			fmt.Fprintf(&b, "<option>%s</option>\n", optionCaption(vals, oi))
		}
		b.WriteString("</select>\n")
	}
	b.WriteString("</div>\n")
	return b.String(), nil
}

func optionCaption(vals []*ast.Node, i int) string {
	if i >= len(vals) || vals[i] == nil {
		return "(absent)"
	}
	s := ast.SQL(vals[i])
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return html.EscapeString(s)
}

const styleBlock = `<style>
body { font-family: sans-serif; margin: 2em; }
.widget { margin: 0.8em 0; padding: 0.6em; border: 1px solid #ccc; border-radius: 6px; max-width: 42em; }
.widget label { font-weight: bold; margin-right: 1em; }
.widget .opt { font-weight: normal; display: block; margin-left: 1em; }
#sql { background: #f6f6f6; padding: 1em; border-radius: 6px; max-width: 60em; white-space: pre-wrap; }
#result table { border-collapse: collapse; margin-top: 0.5em; }
#result th, #result td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: left; }
#result .meta { color: #666; font-size: 0.9em; }
#result .error { color: #a00; }
</style>
`

// scriptBlock holds the page logic: a JS mirror of the Go AST model
// (replace-subtree-at-path and SQL rendering for the node types the
// widget domains contain), plus exec() and render() hooks.
const scriptBlock = `
let current = JSON.parse(JSON.stringify(PI_STATE.initial));
// Bearer token for the query API: an embedded one (trusted
// compilations only) or one handed over in the page URL
// (#token=... preferred — the fragment never leaves the browser —
// or ?token=...). Kept in memory; never re-rendered into the DOM.
const PI_TOKEN = (function () {
  if (PI_STATE.token) return PI_STATE.token;
  try {
    const h = new URLSearchParams(location.hash.slice(1));
    if (h.get("token")) return h.get("token");
    return new URLSearchParams(location.search).get("token") || "";
  } catch (err) { return ""; }
})();
function piHeaders(extra) {
  const h = extra || {};
  if (PI_TOKEN) h["Authorization"] = "Bearer " + PI_TOKEN;
  return h;
}
// Widget bindings in request order: path -> last applied AST value
// (null = absent). The served exec() sends these to the query API,
// which re-binds them onto the template server-side.
const piBindings = {};
function parsePath(p) { return p === "/" ? [] : p.split("/").map(Number); }
function replaceAt(node, path, sub) {
  if (path.length === 0) return sub;
  const copy = {type: node.type, attrs: node.attrs, children: (node.children || []).slice()};
  copy.children[path[0]] = replaceAt(copy.children[path[0]], path.slice(1), sub);
  if (copy.children[path[0]] === null || copy.children[path[0]] === undefined) {
    copy.children.splice(path[0], 1);
  }
  return copy;
}
function piApply(idx, astValue) {
  const w = PI_STATE.widgets[idx];
  piBindings[w.path] = astValue;
  current = replaceAt(current, parsePath(w.path), astValue);
  refresh();
}
function piSelect(idx, optIdx) {
  PI_STATE.widgets[idx]._state = optIdx;
  applyDeps();
  piApply(idx, PI_STATE.widgets[idx].options[optIdx].ast);
}
function piToggle(idx) {
  const w = PI_STATE.widgets[idx];
  w._state = ((w._state || 0) + 1) % w.options.length;
  document.getElementById("wtog-" + idx).textContent = w.options[w._state].label;
  applyDeps();
  piApply(idx, w.options[w._state].ast);
}
// Multi-level interactions: a dependent widget is disabled while its
// controlling widget is in a non-supporting state (PI_STATE.deps).
function applyDeps() {
  for (const d of (PI_STATE.deps || [])) {
    const state = PI_STATE.widgets[d.On]._state;
    const active = state !== undefined && d.ActiveOptions.indexOf(state) >= 0;
    const cell = document.querySelector('[data-widget="' + d.Widget + '"]');
    if (!cell) continue;
    for (const ctl of cell.querySelectorAll("input, select, button")) {
      ctl.disabled = !active;
    }
    cell.style.opacity = active ? "1" : "0.45";
  }
}
function piSetNumber(idx, v) {
  document.getElementById("wval-" + idx).textContent = v;
  piApply(idx, {type: "NumExpr", attrs: {value: String(v)}});
}
function piSetText(idx, v) { piApply(idx, {type: "StrExpr", attrs: {value: v}}); }
function sql(n) {
  if (!n) return "";
  const a = n.attrs || {}, c = n.children || [];
  const list = xs => xs.map(sql).join(", ");
  switch (n.type) {
  case "Select": {
    let s = "SELECT ";
    if (a.distinct === "true") s += "DISTINCT ";
    const lim = c[6];
    if (lim && lim.children && lim.children.length && lim.attrs && lim.attrs.kind === "top")
      s += "TOP " + sql(lim.children[0]) + " ";
    s += sql(c[0]);
    const clause = (i, kw) => (c[i] && c[i].children && c[i].children.length) ? " " + kw + " " + sql(c[i]) : "";
    s += clause(1, "FROM") + clause(2, "WHERE") + clause(3, "GROUP BY") +
         clause(4, "HAVING") + clause(5, "ORDER BY");
    if (lim && lim.children && lim.children.length && (!lim.attrs || lim.attrs.kind !== "top"))
      s += " LIMIT " + sql(lim.children[0]);
    return s;
  }
  case "Project": case "From": case "GroupBy": case "OrderBy": return list(c);
  case "ProjClause": case "FromClause":
    return sql(c[0]) + (a.alias ? " AS " + a.alias : "");
  case "Where": case "Having": case "ElseClause": return sql(c[0]);
  case "OrderClause": return sql(c[0]) + (a.dir === "desc" ? " DESC" : "");
  case "Limit": return sql(c[0]);
  case "SubQuery": return "(" + sql(c[0]) + ")";
  case "ParenExpr": return "(" + sql(c[0]) + ")";
  case "TabExpr": return a.value;
  case "TabFunc": return a && c.length ? sql(c[0]).replace(/'/g, "") + "(" + list(c.slice(1)) + ")" : "";
  case "FuncName": return a.value.toUpperCase();
  case "FuncExpr": return sql(c[0]) + "(" + (a.distinct === "true" ? "DISTINCT " : "") + list(c.slice(1)) + ")";
  case "BiExpr": {
    const wordOps = {and:1, or:1, like:1, is:1, "is not":1, "not like":1};
    const op = wordOps[a.op] ? " " + a.op.toUpperCase() + " " : " " + a.op + " ";
    return sql(c[0]) + op + sql(c[1]);
  }
  case "UniExpr": return (a.op === "not" ? "NOT " : a.op) + sql(c[0]);
  case "CastExpr": return "CAST(" + sql(c[0]) + (a.as ? " AS " + a.as : "") + ")";
  case "CaseExpr": return "CASE " + c.map(sql).join(" ") + " END";
  case "WhenClause": return "WHEN " + sql(c[0]) + " THEN " + sql(c[1]);
  case "InExpr": return sql(c[0]) + (a.not === "true" ? " NOT" : "") + " IN (" + list(c.slice(1)) + ")";
  case "BetweenExpr": return sql(c[0]) + (a.not === "true" ? " NOT" : "") +
    " BETWEEN " + sql(c[1]) + " AND " + sql(c[2]);
  case "ColExpr": return (a.table ? a.table + "." : "") + a.value;
  case "StrExpr": return "'" + a.value.replace(/'/g, "''") + "'";
  case "NumExpr": return a.value;
  case "StarExpr": return (a.table ? a.table + "." : "") + "*";
  case "NullExpr": return "NULL";
  case "BoolExpr": return a.value.toUpperCase();
  }
  return "?" + n.type;
}
// exec()/render() hooks (§3.3). A served page (PI_STATE.endpoint set)
// POSTs the widget bindings to the live query API and renders the
// returned rows; a standalone page falls back to the stub.
async function exec(q) {
  if (!PI_STATE.endpoint) {
    return {note: "exec() stub — wire this to your database", sql: q};
  }
  const widgets = Object.keys(piBindings).map(path =>
    piBindings[path] === null ? {path: path, absent: true}
                              : {path: path, value: piBindings[path]});
  try {
    const resp = await fetch(PI_STATE.endpoint, {
      method: "POST",
      headers: piHeaders({"Content-Type": "application/json"}),
      body: JSON.stringify({widgets: widgets}),
    });
    const body = await resp.json();
    if (!resp.ok) return {error: (body.code ? body.code + ": " : "") + (body.error || resp.statusText)};
    return body;
  } catch (err) {
    return {error: String(err)};
  }
}
function render(result) {
  const el = document.getElementById("result");
  if (result && result.error) {
    el.innerHTML = "";
    const div = document.createElement("div");
    div.className = "error";
    div.textContent = result.error;
    el.appendChild(div);
    return;
  }
  if (!result || !result.cols) {
    el.textContent = JSON.stringify(result);
    return;
  }
  el.innerHTML = "";
  const meta = document.createElement("div");
  meta.className = "meta";
  meta.textContent = result.rowCount + " rows (cache " + result.cache + ")";
  el.appendChild(meta);
  const table = document.createElement("table");
  const head = table.insertRow();
  for (const c of result.cols) {
    const th = document.createElement("th");
    th.textContent = c;
    head.appendChild(th);
  }
  for (const row of result.rows.slice(0, 100)) {
    const tr = table.insertRow();
    for (const v of row) tr.insertCell().textContent = v === null ? "NULL" : v;
  }
  el.appendChild(table);
}
async function refresh() {
  const q = sql(current);
  document.getElementById("sql").textContent = q;
  render(await exec(q));
}
// Live ingestion: a page compiled at some epoch polls the epoch
// endpoint; when the server hot-swaps a re-mined interface the epoch
// bumps and the page reloads to pick up the widened widget domains.
// The current URL (and thus the interface ID) stays stable.
if (PI_STATE.epochEndpoint) {
  setInterval(async function () {
    try {
      const resp = await fetch(PI_STATE.epochEndpoint, {headers: piHeaders()});
      if (!resp.ok) return;
      const body = await resp.json();
      if (body.epoch && body.epoch !== PI_STATE.epoch) location.reload();
    } catch (err) { /* server away; keep the dashboard usable */ }
  }, 3000);
}
applyDeps();
refresh();
`
