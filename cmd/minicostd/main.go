// Command minicostd serves a trained MiniCost agent over HTTP — the agent
// server of the paper's §4.2, deployed next to the web application. The web
// application POSTs each day's per-file request statistics to /v1/observe
// and fetches the tier assignment plan from /v1/plan.
//
// The agent comes from -checkpoint, which reads any checkpoint: the
// actor-only file rl.Agent.Save writes (-save among others) or a learner
// checkpoint the online subsystem writes, whose critic -online carries into
// the fine-tune trainer. Without one, minicostd bootstraps by training on a
// synthetic workload so the service is demonstrable out of the box, then
// bills the bootstrapped policy on that workload and logs the bill.
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
//	minicostd -bootstrap-steps 200000 -save agent.ckpt
//	minicostd -online -finetune-every 16 -checkpoint-dir /var/lib/minicost
//	minicostd -checkpoint /var/lib/minicost/learner-0000000003.ckpt -online
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minicost/internal/agentserver"
	"minicost/internal/core"
	"minicost/internal/costmodel"
	"minicost/internal/mat"
	"minicost/internal/mdp"
	"minicost/internal/obs"
	"minicost/internal/online"
	"minicost/internal/pricing"
	"minicost/internal/rl"
	"minicost/internal/trace"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		checkpoint = flag.String("checkpoint", "", "checkpoint to boot from: an agent's actor, or a learner's actor and critic")
		save       = flag.String("save", "", "write the (possibly bootstrapped) agent checkpoint here, atomically")
		steps      = flag.Int64("bootstrap-steps", 200000, "training steps when bootstrapping without a checkpoint")
		filters    = flag.Int("filters", 32, "conv filters when bootstrapping")
		hidden     = flag.Int("hidden", 64, "hidden neurons when bootstrapping")
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
		ftPar     = flag.Int("finetune-parallelism", 0, "intra-update GEMM fan-out during fine-tuning (0 = serial)")
		driftThr  = flag.Float64("drift-threshold", 0.25, "PSI drift score that triggers a fine-tune epoch (0 disables drift triggering)")
		swapGate  = flag.Bool("swap-gate", true, "require candidates to not regress held-out cost before hot-swapping")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for learner checkpoints (atomic rename + retention); empty disables")
		ckptKeep  = flag.Int("checkpoint-keep", 5, "learner checkpoints to retain (-1 keeps all)")
	)
	flag.Parse()
	ftCfg := finetuneA3C(*ftWorkers, *ftEnvs, *ftPar)
	if *onlineOn {
		// Refuse bad learner settings now, not after the bootstrap run.
		if err := checkOnlineFlags(ftCfg, *ftSteps, *ckptKeep); err != nil {
			fatal(err)
		}
	}

	// Turn the default-off registry on before bootstrapping so the training
	// instruments record from the first step.
	obs.Default().SetEnabled(*metrics)

	// Which GEMM kernel tier CPUID selected: a plan latency is only
	// comparable with another taken on the same tier.
	isa := mat.KernelISA()
	fmt.Fprintf(os.Stderr, "minicostd: gemm kernel %s\n", isa)
	obs.Default().Gauge("minicost_gemm_kernel_info",
		"Kernel tier the packed GEMM runs on this CPU (avx512, avx or generic), chosen once at start-up; always 1.",
		obs.L("isa", isa)).Set(1)

	boot, err := loadOrBootstrap(bootOpts{
		checkpoint:     *checkpoint,
		steps:          *steps,
		filters:        *filters,
		hidden:         *hidden,
		online:         *onlineOn,
		finetuneConfig: ftCfg,
	})
	if err != nil {
		fatal(err)
	}
	agent := boot.agent
	if *save != "" {
		if err := online.WriteAtomic(*save, agent.Save); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "minicostd: checkpoint written to %s\n", *save)
	}

	srv, err := agentserver.NewWithConfig(agent, pricing.Hot, agentserver.Config{
		Shards:          *shards,
		MaxObserveBytes: *maxBody,
	})
	if err != nil {
		fatal(err)
	}

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
		if boot.baseline != nil {
			learner.SetBaselineFromTrace(boot.baseline)
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
		*addr, agent.Net.HistLen, srv.Shards())
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
// EnvsPerWorker the lockstep width, Parallelism the intra-update GEMM
// fan-out. Out-of-range values are left for A3CConfig.Validate to refuse.
func finetuneA3C(workers, envs, parallelism int) rl.A3CConfig {
	cfg := core.DefaultConfig().A3C
	cfg.Workers = workers
	cfg.EnvsPerWorker = envs
	cfg.Parallelism = parallelism
	return cfg
}

// checkOnlineFlags refuses the -online settings that would otherwise fail
// only after the bootstrap run (an invalid fine-tune shape, a negative step
// budget) or be silently replaced: online.Config reads an explicit zero as
// "unset", so -finetune-steps 0 would train 2048 steps and -checkpoint-keep 0
// keep 5.
func checkOnlineFlags(ft rl.A3CConfig, steps int64, keep int) error {
	if err := ft.Validate(); err != nil {
		return fmt.Errorf("fine-tune config: %w", err)
	}
	if steps < 1 {
		return fmt.Errorf("-finetune-steps %d: want at least 1", steps)
	}
	if keep == 0 {
		return errors.New("-checkpoint-keep 0: want at least 1, or -1 to keep every checkpoint")
	}
	return nil
}

// bootOpts selects minicostd's policy source.
type bootOpts struct {
	checkpoint     string
	steps          int64
	filters        int
	hidden         int
	online         bool
	finetuneConfig rl.A3CConfig
}

// bootState is what serving and the online learner boot from: the serving
// agent, the fine-tune trainer carrying the same actor weights (nil unless
// -online), the cost model, and — on the bootstrap path — the synthetic
// training trace that seeds the drift baseline.
type bootState struct {
	agent    *rl.Agent
	trainer  *rl.A3C
	model    *costmodel.Model
	baseline *trace.Trace
}

// loadOrBootstrap resolves the serving policy: a checkpoint, or a
// synthetic bootstrap run; after bootstrapping it bills the policy on the
// bootstrap workload and logs the bill. With opts.online the returned
// trainer's global actor is bitwise the serving agent's, so the learner's
// first rollback point and incumbent agree; its critic is the checkpoint's
// when the file carries one, the bootstrap run's warm critic after a
// bootstrap, and rl.NewA3C's fresh one otherwise.
func loadOrBootstrap(opts bootOpts) (*bootState, error) {
	model := costmodel.New(pricing.Azure())
	if opts.checkpoint != "" {
		// One read: the agent and the trainer decode the same bytes, so a
		// file replaced on disk meanwhile cannot pair one checkpoint's actor
		// with another's critic.
		data, err := os.ReadFile(opts.checkpoint)
		if err != nil {
			return nil, err
		}
		agent, err := rl.LoadAgent(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		st := &bootState{agent: agent, model: model}
		if opts.online {
			cfg := opts.finetuneConfig
			cfg.Net = agent.Net
			if st.trainer, err = rl.NewA3C(cfg); err != nil {
				return nil, err
			}
			if err := st.trainer.LoadCheckpoint(bytes.NewReader(data)); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(os.Stderr, "minicostd: loaded %s\n", opts.checkpoint)
		return st, nil
	}
	fmt.Fprintf(os.Stderr, "minicostd: no checkpoint; bootstrapping on a synthetic workload (%d steps)...\n", opts.steps)
	gen := trace.DefaultGenConfig()
	gen.NumFiles = 500
	gen.Days = 42
	tr, err := trace.Generate(gen)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.TrainSteps = opts.steps
	cfg.A3C.Net.Filters = opts.filters
	cfg.A3C.Net.Hidden = opts.hidden
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := sys.Train(tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "minicostd: bootstrapped in %s\n", time.Since(start).Round(time.Second))
	report, err := sys.Run(tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "minicostd: bootstrap eval: bill $%.4f over %d days (%d tier changes)\n",
		report.Total.Total(), tr.Days, report.TierChanges)
	st := &bootState{agent: sys.Agent(), model: sys.Model(), baseline: tr}
	if opts.online {
		// Training selected the best evaluation snapshot as the serving
		// agent, which can differ from the trainer's final weights; carry
		// the bootstrap trainer's warm critic into the fine-tune trainer.
		ftCfg := opts.finetuneConfig
		ftCfg.Net = cfg.A3C.Net
		if st.trainer, err = rl.NewA3C(ftCfg); err != nil {
			return nil, err
		}
		_, critic := sys.Trainer().ParamVectors()
		if err := st.trainer.SetParamVectors(st.agent.ParamVector(), critic); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minicostd:", err)
	os.Exit(1)
}
