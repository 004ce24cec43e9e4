// Command flux-broker runs one CMB rank of a TCP-deployed comms
// session. Start one per node (or per process for local testing):
//
//	# 3-rank session on localhost, binary tree; rank addresses are
//	# host:(baseport+rank).
//	flux-broker -rank 0 -size 3 -base-port 9600 &
//	flux-broker -rank 1 -size 3 -base-port 9600 &
//	flux-broker -rank 2 -size 3 -base-port 9600 &
//	flux -connect 127.0.0.1:9602 ping
//
// Explicit addressing is also supported via -listen/-parent/-ring-next
// for multi-host deployments. All ranks must share the session key
// (-key-file, default key "flux-session").
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fluxgo/internal/cas"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/barrier"
	"fluxgo/internal/modules/group"
	"fluxgo/internal/modules/hb"
	"fluxgo/internal/modules/jobsvc"
	"fluxgo/internal/modules/live"
	"fluxgo/internal/modules/resrc"
	"fluxgo/internal/modules/wexec"
	"fluxgo/internal/session"
	"fluxgo/internal/wire"
)

var (
	rankFlag     = flag.Int("rank", 0, "this broker's rank")
	sizeFlag     = flag.Int("size", 1, "session size (number of ranks)")
	arityFlag    = flag.Int("arity", 2, "tree fan-out")
	basePortFlag = flag.Int("base-port", 9600, "rank r listens on base-port+r (single-host mode)")
	hostFlag     = flag.String("host", "127.0.0.1", "host for single-host mode addresses")
	listenFlag   = flag.String("listen", "", "explicit listen address (overrides single-host mode)")
	parentFlag   = flag.String("parent", "", "explicit tree-parent address")
	ringFlag     = flag.String("ring-next", "", "explicit ring-successor address")
	keyFileFlag  = flag.String("key-file", "", "file holding the shared session key")
	hbFlag       = flag.Duration("hb", 2*time.Second, "heartbeat interval")
	verboseFlag  = flag.Bool("v", false, "log broker diagnostics to stderr")
	debugFlag    = flag.String("debug-addr", "", "serve expvar (/debug/vars, incl. the broker metrics registry) and pprof (/debug/pprof) on this address")
	kvsDirFlag   = flag.String("kvs-dir", "", "root directory for the KVS durable tier (each rank persists under its own rank<r>/<svc> subdir); empty disables persistence")
	ckptFlag     = flag.Int("kvs-checkpoint-every", 64, "fold the KVS WAL into a pack every N commits (with -kvs-dir)")
)

func main() {
	flag.Parse()
	key := []byte("flux-session")
	if *keyFileFlag != "" {
		b, err := os.ReadFile(*keyFileFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flux-broker:", err)
			os.Exit(1)
		}
		key = b
	}

	listen := *listenFlag
	parent := *parentFlag
	ringNext := *ringFlag
	if listen == "" {
		addrOf := func(r int) string { return fmt.Sprintf("%s:%d", *hostFlag, *basePortFlag+r) }
		listen = addrOf(*rankFlag)
		var err error
		parent, ringNext, err = session.TreeAddrs(*rankFlag, *sizeFlag, *arityFlag, addrOf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flux-broker:", err)
			os.Exit(1)
		}
	}

	var logf func(string, ...any)
	if *verboseFlag {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "flux-broker: "+format+"\n", args...)
		}
	}

	b, err := session.StartTCPBroker(session.TCPConfig{
		Rank:         *rankFlag,
		Size:         *sizeFlag,
		Arity:        *arityFlag,
		Listen:       listen,
		ParentAddr:   parent,
		RingNextAddr: ringNext,
		Key:          key,
		Log:          logf,
		Modules: []session.ModuleFactory{
			kvs.Factory(kvsConfig()),
			hb.Factory(hb.Config{Interval: *hbFlag}),
			live.Factory(live.Config{}),
			group.Factory,
			barrier.Factory,
			wexec.Factory(wexec.Config{}),
			resrc.Factory(resrc.Config{}),
			jobsvc.Factory(jobsvc.Config{Backfill: true}),
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flux-broker:", err)
		os.Exit(1)
	}
	fmt.Printf("flux-broker: rank %d/%d up on %s\n", *rankFlag, *sizeFlag, b.Addr())

	if *debugFlag != "" {
		// Publish the broker's metrics registry as one expvar; pprof
		// registers its handlers on DefaultServeMux via its import.
		expvar.Publish(wire.ServiceCMB, expvar.Func(func() any { return b.B.Metrics().Snapshot() }))
		srv := &http.Server{Addr: *debugFlag, ReadHeaderTimeout: 5 * time.Second}
		//fluxlint:ignore goroutine-lifecycle debug server lives for the process; srv.Close on exit stops it
		go func() {
			fmt.Printf("flux-broker: debug endpoint on http://%s/debug/vars\n", *debugFlag)
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "flux-broker: debug endpoint:", err)
			}
		}()
		defer srv.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("flux-broker: shutting down")
	b.Close()
}

// kvsConfig builds the KVS module config, wiring the durable disk tier
// when -kvs-dir is set (the module namespaces the root by rank and
// service itself), so a restarted broker cold-loads its cache — and,
// at rank 0, the master's root commit — from disk.
func kvsConfig() kvs.ModuleConfig {
	cfg := kvs.ModuleConfig{CacheMaxAge: 5 * time.Minute}
	if *kvsDirFlag != "" {
		cfg.Dir = *kvsDirFlag
		cfg.FS = cas.DirFS()
		cfg.CheckpointEvery = *ckptFlag
	}
	return cfg
}
