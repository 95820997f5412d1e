package tensorboard

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Server is a minimal TensorBoard-like web server over profiled runs: an
// index of runs, per-run Overview / Input-Pipeline / TraceViewer pages,
// and the raw artifacts for download.
type Server struct {
	mux  *http.ServeMux
	runs map[string]*ProfileData
}

// NewServer builds a server over the given runs.
func NewServer(runs map[string]*ProfileData) *Server {
	s := &Server{mux: http.NewServeMux(), runs: runs}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/run/", s.handleRun)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>tf-Darshan Profile</title></head><body>
<h1>tf-Darshan — profiled runs</h1>
<ul>
{{range .}}<li><a href="/run/{{.}}/overview">{{.}}</a>
 (<a href="/run/{{.}}/input_pipeline">input pipeline</a>,
  <a href="/run/{{.}}/timelines">timelines</a>,
  <a href="/run/{{.}}/trace.json.gz">trace.json.gz</a>,
  <a href="/run/{{.}}/profile.pb">profile.pb</a>)</li>
{{end}}
</ul></body></html>`))

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title></head><body>
<h1>{{.Title}}</h1>
<pre>{{.Body}}</pre>
<p><a href="/">back to runs</a></p>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	names := make([]string, 0, len(s.runs))
	for n := range s.runs {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, names); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/run/")
	parts := strings.SplitN(rest, "/", 2)
	if len(parts) != 2 {
		http.NotFound(w, r)
		return
	}
	run, page := parts[0], parts[1]
	data, ok := s.runs[run]
	if !ok {
		http.NotFound(w, r)
		return
	}
	renderPage := func(title, body string) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		err := pageTmpl.Execute(w, struct{ Title, Body string }{title, body})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	switch page {
	case "overview":
		renderPage(fmt.Sprintf("Overview — %s", run), data.OverviewText())
	case "input_pipeline":
		renderPage(fmt.Sprintf("Input-Pipeline Analysis — %s", run), data.InputPipelineText())
	case "timelines":
		renderPage(fmt.Sprintf("TraceViewer — %s", run), data.TraceViewerText(40, 30))
	case "trace.json.gz":
		if data.Space == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/gzip")
		// Its only error is a failed write to the client, after the
		// response has begun.
		trace.WriteJSONGz(w, data.Space, data.SessionStartNs)
	case "profile.pb":
		if data.Analysis == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data.Analysis.ToProto().Marshal())
	default:
		http.NotFound(w, r)
	}
}
