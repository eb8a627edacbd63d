// Attribution: the §3.2 use case. A professor downloads figures from the
// web, copies them into her presentation directory, and months later —
// with the browser history gone and some pages offline — needs proper
// attribution. The browser alone loses the connection when a file is
// moved; PASSv2 keeps file and provenance connected across renames. The
// program exits non-zero if a renamed file's FILE_URL is lost.
package main

import (
	"fmt"
	"log"

	"passv2/internal/links"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/web"
	"passv2/pass"
)

func main() {
	m := pass.NewMachine(pass.Config{Provenance: true})
	if _, err := m.AddVolume("/home", 1); err != nil {
		log.Fatal(err)
	}

	// The web, as it existed back then.
	www := web.New()
	www.AddPage("http://stats.example/", "statistics portal", "http://stats.example/growth")
	www.AddPage("http://stats.example/growth", "growth charts", "http://stats.example/growth/chart.png")
	www.AddDownload("http://stats.example/growth/chart.png", []byte("PNG-GROWTH-CHART"))
	www.AddPage("http://quotes.example/keynote", "conference keynote")
	www.AddDownload("http://quotes.example/keynote.txt", []byte("\"Provenance is the new metadata.\""))

	// A browsing session months ago.
	proc := m.Spawn("links", []string{"links"}, nil)
	b := links.New(proc, www)
	if _, err := b.NewSession("/home"); err != nil {
		log.Fatal(err)
	}
	proc.MkdirAll("/home/downloads")
	must(b.Visit("http://stats.example/"))
	must(b.Visit("http://stats.example/growth"))
	if _, err := b.Download("http://stats.example/growth/chart.png", "/home/downloads/chart.png"); err != nil {
		log.Fatal(err)
	}
	must(b.Visit("http://quotes.example/keynote"))
	if _, err := b.Download("http://quotes.example/keynote.txt", "/home/downloads/quote.txt"); err != nil {
		log.Fatal(err)
	}

	// She assembles the talk: copies (renames) the figures into the
	// presentation directory. The browser has no idea.
	proc.MkdirAll("/home/talk")
	if err := proc.Rename("/home/downloads/chart.png", "/home/talk/figure1.png"); err != nil {
		log.Fatal(err)
	}
	if err := proc.Rename("/home/downloads/quote.txt", "/home/talk/quote.txt"); err != nil {
		log.Fatal(err)
	}

	// Time passes: browser history cleared, one source vanishes.
	www.Remove("http://stats.example/growth/chart.png")

	// Now: attribution, from the files themselves.
	must2(m.Drain())
	db := m.Waldo.DB
	fmt.Println("Attribution recovered from provenance:")
	for _, f := range []struct{ path, url string }{
		{"/home/talk/figure1.png", "http://stats.example/growth/chart.png"},
		{"/home/talk/quote.txt", "http://quotes.example/keynote.txt"},
	} {
		pns := db.ByName(f.path)
		if len(pns) == 0 {
			log.Fatalf("%s not in provenance database", f.path)
		}
		v, _ := db.LatestVersion(pns[0])
		ref := pnode.Ref{PNode: pns[0], Version: v}
		url := firstString(db.AttrValues(ref, record.AttrFileURL))
		page := firstString(db.AttrValues(ref, record.AttrCurrentURL))
		fmt.Printf("  %s\n    downloaded from: %s\n    while viewing:   %s\n", f.path, url, page)
		if url != f.url {
			log.Fatalf("%s: FILE_URL %s after the rename, want %s", f.path, url, f.url)
		}
	}

	// The session's full trail is there too.
	res, err := m.Query(`
		select S.visited_url as visited
		from Provenance.session as S`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBrowsing trail of the session:")
	fmt.Print(res.Format())
}

func firstString(vals []record.Value) string {
	for _, v := range vals {
		if s, ok := v.AsString(); ok {
			return s
		}
	}
	return "(unknown)"
}

func must(_ *web.Page, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must2(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
