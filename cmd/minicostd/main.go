// Command minicostd serves a trained MiniCost agent over HTTP — the agent
// server of the paper's §4.2, deployed next to the web application. The web
// application POSTs each day's per-file request statistics to /v1/observe
// and fetches the tier assignment plan from /v1/plan.
//
// The agent comes from -checkpoint, which reads any checkpoint: the
// actor-only file rl.Agent.Save writes (minicost -save among others) or a
// learner checkpoint the online subsystem writes, whose critic -online
// carries into the fine-tune trainer. Without one, minicostd starts at once
// and serves policy.Greedy from the same store; with -online a fresh trainer
// of shape freshNet fine-tunes on the observed history, and its candidate
// replaces Greedy only when the holdout bills it no higher than Greedy.
//
// With -online the daemon closes the serve→train loop (DESIGN.md §16): the
// serving store keeps each file's history over the learner's window, drift
// against the training distribution is counted at ingest and scored on
// /metrics, fine-tune epochs run on a cadence or when drift crosses
// -drift-threshold on traces read out of that store, and candidates that
// survive the validation gate are hot-swapped into serving (status on
// /v1/learner and /healthz).
//
// The daemon enables the process-wide obs registry: /metrics exposes the
// serving and training metric families in Prometheus text
// format, /healthz answers liveness, and -pprof mounts the standard
// /debug/pprof handlers. SIGINT/SIGTERM drain in-flight requests through
// server.Shutdown before exit.
//
// Usage:
//
//	minicostd -checkpoint agent.ckpt -addr :8080
//	minicostd -addr :8080
//	minicostd -online -finetune-every 16 -checkpoint-dir /var/lib/minicost
//	minicostd -checkpoint /var/lib/minicost/learner-0000000003.ckpt -online
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/obs"
	"minicost/internal/online"
	"minicost/internal/pricing"
	"minicost/internal/rl"
)

// freshNet is the shape of the fine-tune trainer -online starts from when
// there is no checkpoint: the paper's 14-day window under a 32-filter,
// 64-unit network.
var freshNet = rl.NetConfig{HistLen: 14, Filters: 32, Kernel: 4, Stride: 1, Hidden: 64}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		checkpoint = flag.String("checkpoint", "", "checkpoint to boot from: an agent's actor, or a learner's actor and critic (none: serve Greedy)")
		metrics    = flag.Bool("metrics", true, "enable the obs registry and serve /metrics")
		pprofOn    = flag.Bool("pprof", false, "mount /debug/pprof handlers")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		shards     = flag.Int("shards", 0, "tracked-state partitions, rounded up to a power of two (0 = default)")
		maxBody    = flag.Int64("max-observe-bytes", 0, "cap on a /v1/observe request body in bytes (0 = default 8 MiB)")

		onlineOn  = flag.Bool("online", false, "run the continuous-learning loop: score drift, fine-tune on the stored history, hot-swap")
		ftEvery   = flag.Int("finetune-every", 16, "fine-tune epoch cadence in observe batches (0 disables cadence epochs)")
		ftSteps   = flag.Int64("finetune-steps", 2048, "environment steps per fine-tune epoch")
		ftWorkers = flag.Int("finetune-workers", 1, "training workers for fine-tune epochs (each round applies their gradients in worker order)")
		ftEnvs    = flag.Int("finetune-envs", 8, "environments each fine-tune worker drives in lockstep (0 or 1 = one)")
		driftThr  = flag.Float64("drift-threshold", 0.25, "PSI drift score that triggers a fine-tune epoch (0 disables drift triggering)")
		swapGate  = flag.Bool("swap-gate", true, "require candidates to not regress held-out cost before hot-swapping")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for learner checkpoints (atomic rename + retention); empty disables")
		ckptKeep  = flag.Int("checkpoint-keep", 5, "learner checkpoints to retain (-1 keeps all)")
	)
	flag.Parse()
	ftCfg := finetuneA3C(*ftWorkers, *ftEnvs)
	if *onlineOn {
		// Refuse bad learner settings before reading the checkpoint.
		if err := checkOnlineFlags(ftCfg, *ftSteps, *ftEvery, *driftThr, *ckptKeep); err != nil {
			fatal(err)
		}
	}

	// Turn the default-off registry on before booting so the training
	// instruments record from the first step.
	obs.Default().SetEnabled(*metrics)

	// Which GEMM kernel tier CPUID selected: a plan latency is only
	// comparable with another taken on the same tier.
	isa := mat.KernelISA()
	fmt.Fprintf(os.Stderr, "minicostd: gemm kernel %s\n", isa)
	obs.Default().Gauge("minicost_gemm_kernel_info",
		"Kernel tier the packed GEMM runs on this CPU (avx512, avx or generic), chosen once at start-up; always 1.",
		obs.L("isa", isa)).Set(1)

	boot, err := load(*checkpoint, *onlineOn, ftCfg, agentserver.Config{
		Shards:          *shards,
		MaxObserveBytes: *maxBody,
	})
	if err != nil {
		fatal(err)
	}
	srv := boot.server

	var learner *online.Learner
	if *onlineOn {
		learner, err = online.New(online.Config{
			Trainer:        boot.trainer,
			Serving:        srv,
			Model:          boot.model,
			Reward:         mdp.DefaultReward(),
			Initial:        pricing.Hot,
			FinetuneEvery:  *ftEvery,
			FinetuneSteps:  *ftSteps,
			DriftThreshold: *driftThr,
			SwapGate:       *swapGate,
			CheckpointDir:  *ckptDir,
			CheckpointKeep: *ckptKeep,
		})
		if err != nil {
			fatal(err)
		}
		srv.SetTap(learner)
		learner.Start()
		fmt.Fprintf(os.Stderr, "minicostd: online learner on (cadence %d batches, drift threshold %.3g, gate %v)\n",
			*ftEvery, *driftThr, *swapGate)
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	if learner != nil {
		mux.Handle("/v1/learner", learner.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		if learner != nil {
			st := learner.Status()
			fmt.Fprintf(w, "learner: epochs=%d swaps=%d rejected=%d drift=%.4f buffered=%d\n",
				st.Epochs, st.Swaps, st.SwapsRejected, st.DriftScore, st.BufferFiles)
		}
	})
	if *metrics {
		mux.Handle("/metrics", obs.Handler())
	}
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	fmt.Fprintf(os.Stderr, "minicostd: serving on %s (hist window %d days, %d shards)\n",
		*addr, srv.Stats().HistLen, srv.Shards())
	server := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: first SIGINT/SIGTERM drains in-flight requests for
	// up to -drain; a second signal (NotifyContext restores the default
	// handlers once fired) kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintf(os.Stderr, "minicostd: shutting down (drain %s)\n", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		drained <- server.Shutdown(sctx)
	}()

	if err := server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if err := <-drained; err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	if learner != nil {
		learner.Stop()
	}
	fmt.Fprintln(os.Stderr, "minicostd: bye")
}

// finetuneA3C is the paper's training configuration with the daemon's
// fine-tune knobs applied as given: Workers sets the round's worker count,
// EnvsPerWorker the lockstep width; each update runs on its worker.
// Out-of-range values are left for A3CConfig.Validate to refuse.
func finetuneA3C(workers, envs int) rl.A3CConfig {
	cfg := rl.DefaultA3CConfig()
	cfg.Workers = workers
	cfg.EnvsPerWorker = envs
	return cfg
}

// checkOnlineFlags refuses the -online settings that would otherwise fail
// only after the checkpoint was read (an invalid fine-tune shape, a negative
// step budget, cadence or drift threshold), never trigger (a NaN drift
// threshold: no score reaches it) or be silently replaced: online.Config
// reads an explicit zero as "unset", so -finetune-steps 0 would train 2048
// steps and -checkpoint-keep 0 keep 5.
func checkOnlineFlags(ft rl.A3CConfig, steps int64, every int, drift float64, keep int) error {
	if err := ft.Validate(); err != nil {
		return fmt.Errorf("fine-tune config: %w", err)
	}
	if steps < 1 {
		return fmt.Errorf("-finetune-steps %d: want at least 1", steps)
	}
	if every < 0 {
		return fmt.Errorf("-finetune-every %d: want 0 (no cadence epochs) or more", every)
	}
	if drift < 0 || math.IsNaN(drift) {
		return fmt.Errorf("-drift-threshold %v: want 0 (no drift epochs) or more", drift)
	}
	if keep == 0 {
		return errors.New("-checkpoint-keep 0: want at least 1, or -1 to keep every checkpoint")
	}
	return nil
}

// bootState is what serving and the online learner boot from: the server,
// the checkpoint's actor it serves (nil while it serves Greedy), the
// fine-tune trainer (nil unless -online) and the cost model.
type bootState struct {
	server  *agentserver.Server
	agent   *rl.Agent
	trainer *rl.A3C
	model   *costmodel.Model
}

// load builds the serving stack from checkpoint, or from nothing. With a
// checkpoint the server serves its actor, and with online the trainer's
// global actor is bitwise that actor, so the learner's first rollback point
// and incumbent agree; the trainer's critic is the checkpoint's when the file
// carries one and rl.NewA3C's fresh one otherwise. Without a checkpoint the
// server serves policy.Greedy over freshNet's window, and the trainer starts
// fresh at freshNet.
func load(checkpoint string, online bool, ft rl.A3CConfig, cfg agentserver.Config) (*bootState, error) {
	st := &bootState{model: costmodel.New(pricing.Azure())}
	var err error
	if checkpoint == "" {
		if st.server, err = agentserver.NewGreedy(st.model, freshNet.HistLen, pricing.Hot, cfg); err != nil {
			return nil, err
		}
		if online {
			ft.Net = freshNet
			if st.trainer, err = rl.NewA3C(ft); err != nil {
				return nil, err
			}
		}
		fmt.Fprintln(os.Stderr, "minicostd: no checkpoint; serving policy.Greedy")
		return st, nil
	}
	// One read: the agent and the trainer decode the same bytes, so a file
	// replaced on disk meanwhile cannot pair one checkpoint's actor with
	// another's critic.
	data, err := os.ReadFile(checkpoint)
	if err != nil {
		return nil, err
	}
	if st.agent, err = rl.LoadAgent(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	if st.server, err = agentserver.NewWithConfig(st.agent, pricing.Hot, cfg); err != nil {
		return nil, err
	}
	if online {
		ft.Net = st.agent.Net
		if st.trainer, err = rl.NewA3C(ft); err != nil {
			return nil, err
		}
		if err := st.trainer.LoadCheckpoint(bytes.NewReader(data)); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "minicostd: loaded %s\n", checkpoint)
	return st, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minicostd:", err)
	os.Exit(1)
}
