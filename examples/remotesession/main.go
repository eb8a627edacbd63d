// Remotesession replays the paper's §6.5 browser scenario against a
// remote provenance daemon, over the wire DPAPI:
//
//  1. pass_mkobj a phantom SESSION object on the daemon — the browser
//     session exists at the application layer, with no file beneath it;
//  2. disclose page-derivation provenance over the network: every fetched
//     page is its own phantom DOCUMENT descending from the session and
//     from the page it was reached from, all pipelined in one batch
//     (one round-trip, one durable acknowledgment);
//  3. "restart the browser": drop the connection, reconnect, and
//     pass_reviveobj the session by its saved reference — the handle died
//     with the connection, the object did not;
//  4. keep disclosing against the revived session, then answer the §3.2
//     question over the same wire: where did this download come from?
//
// By default the example starts its own daemon over a temporary log
// directory. Point it at a real one instead (matching cmd/passd -logdir):
//
//	passd -logdir /tmp/prov &
//	go run ./examples/remotesession -addr 127.0.0.1:7457
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"passv2/internal/dpapi"
	"passv2/internal/passd"
	"passv2/internal/record"
)

func main() {
	addr := flag.String("addr", "", "address of a running passd daemon (empty = start one in-process)")
	flag.Parse()

	target := *addr
	if target == "" {
		srv, cleanup := startLocalDaemon()
		defer cleanup()
		target = srv.Addr()
		fmt.Printf("started in-process passd on %s (use -addr to target a real daemon)\n\n", target)
	}

	// --- First browser run: create the session, disclose page visits. ---
	c, err := passd.Dial(target)
	if err != nil {
		log.Fatal(err)
	}
	v, vol, err := c.Hello()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol v%d; daemon phantom volume %#x\n", v, vol)

	session, err := c.PassMkobj()
	if err != nil {
		log.Fatal(err)
	}
	sessionRef := session.Ref()
	if err := dpapi.Disclose(session,
		record.New(sessionRef, record.AttrType, record.StringVal(record.TypeSession)),
		record.New(sessionRef, record.AttrName, record.StringVal("firefox-session-1")),
	); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass_mkobj session %v\n", sessionRef)

	// Browse: each page becomes a DOCUMENT phantom descending from the
	// session and from the page that linked to it. All the derivation
	// records ship in one pipelined batch.
	pages := []struct{ name, url, from string }{
		{"results", "http://search.example/q=mit+license", ""},
		{"project", "http://project.example/", "results"},
		{"download", "http://project.example/release.tar.gz", "project"},
	}
	objs := make(map[string]*passd.RemoteObject)
	batch := c.NewBatch()
	for _, pg := range pages {
		obj, err := c.PassMkobj()
		if err != nil {
			log.Fatal(err)
		}
		ro := obj.(*passd.RemoteObject)
		objs[pg.name] = ro
		recs := []record.Record{
			record.New(ro.Ref(), record.AttrType, record.StringVal(record.TypeDocument)),
			record.New(ro.Ref(), record.AttrName, record.StringVal(pg.name)),
			record.New(ro.Ref(), record.AttrFileURL, record.StringVal(pg.url)),
			record.Input(ro.Ref(), sessionRef),
		}
		if pg.from != "" {
			recs = append(recs, record.Input(ro.Ref(), objs[pg.from].Ref()))
		}
		if err := batch.Disclose(ro, recs...); err != nil {
			log.Fatal(err)
		}
	}
	n := batch.Len()
	if err := batch.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disclosed %d pages' derivations in one batch (%d DPAPI ops, one durable ack)\n", len(pages), n)

	// --- Browser exits: the connection (and every handle) dies. ---
	c.Close()
	fmt.Printf("connection closed — handles gone, session object still on the daemon\n\n")

	// --- Second browser run: revive and continue the session. ---
	c2, err := passd.Dial(target)
	if err != nil {
		log.Fatal(err)
	}
	defer c2.Close()
	revived, err := c2.PassReviveObj(sessionRef)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass_reviveobj %v after reconnect\n", sessionRef)
	if err := dpapi.Disclose(revived,
		record.New(revived.Ref(), record.AttrVisitedURL, record.StringVal("http://project.example/changelog")),
	); err != nil {
		log.Fatal(err)
	}

	// --- §3.2's question, answered by the same daemon: where did the
	// download come from? ---
	if _, err := c2.Drain(); err != nil {
		log.Fatal(err)
	}
	res, err := c2.Query(`
		select Origin
		from Provenance.document as Download
		     Download.input* as Origin
		where Download.name = "download"`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nancestry of the downloaded file:\n%s", res.Format())
}

// startLocalDaemon opens a passd daemon over a write-through provenance
// log in a temp directory — cmd/passd -logdir, through the same
// constructor — so every acknowledged disclosure is fsynced.
func startLocalDaemon() (*passd.Server, func()) {
	dir, err := os.MkdirTemp("", "remotesession-*")
	if err != nil {
		log.Fatal(err)
	}
	d, err := passd.Open(passd.DaemonConfig{LogDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	return d.Server, func() {
		d.Close()
		os.RemoveAll(dir)
	}
}
