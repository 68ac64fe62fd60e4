// scrollcat inspects durable Scroll logs (paper §3.1): it decodes the
// WAL-backed records of one or more process scrolls and prints them,
// either per process or merged into the global Lamport order.
//
// Usage:
//
//	scrollcat dir1 [dir2 ...]        # per-directory dump
//	scrollcat -merge dir1 dir2 ...   # single, globally ordered stream
//	scrollcat -kind recv dir1        # filter by record kind
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/scroll"
)

func main() {
	merge := flag.Bool("merge", false, "merge all scrolls into global Lamport order")
	kindFilter := flag.String("kind", "", "only show records of this kind (recv|send|random|time|env|ckpt|fault|custom)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: scrollcat [-merge] [-kind K] dir [dir...]")
		os.Exit(2)
	}

	var scrolls []*scroll.Scroll
	for _, dir := range flag.Args() {
		proc := filepath.Base(dir)
		s, err := scroll.OpenDurable(proc, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scrollcat: %s: %v\n", dir, err)
			os.Exit(1)
		}
		scrolls = append(scrolls, s)
	}
	defer func() {
		for _, s := range scrolls {
			s.Close()
		}
	}()

	dump(os.Stdout, scrolls, *merge, *kindFilter)
}

// dump prints the scrolls, merged into global Lamport order or grouped
// per process, optionally filtered by record kind.
func dump(out io.Writer, scrolls []*scroll.Scroll, merge bool, kindFilter string) {
	show := func(r scroll.Record) {
		if kindFilter != "" && r.Kind.String() != strings.ToLower(kindFilter) {
			return
		}
		payload := string(r.Payload)
		if len(payload) > 40 {
			payload = payload[:37] + "..."
		}
		fmt.Fprintf(out, "%8d  %-10s %-6s seq=%-5d msg=%-8s peer=%-10s clock=%s %q\n",
			r.Lamport, r.Proc, r.Kind, r.Seq, r.MsgID, r.Peer, r.Clock, payload)
	}

	if merge {
		for _, r := range scroll.Merge(scrolls...) {
			show(r)
		}
		return
	}
	for _, s := range scrolls {
		fmt.Fprintf(out, "--- %s (%d records) ---\n", s.Proc(), s.Len())
		for r := range s.All() {
			show(r)
		}
	}
}
