(** The real two-domain DIFT runtime (paper §2.1, "Exploiting
    multicores").

    Where [Dift_multicore.Helper] {e simulates} the main-core /
    helper-core split with a cycle model, this module {e runs} it: the
    application executes in the calling OCaml 5 domain while a helper
    [Domain.t] consumes the forwarded event stream through a bounded
    {!Channel} and drives the shared taint engine
    ({!Dift_core.Engine} over {!Dift_core.Taint.Bool}).  The numbers
    it reports are wall-clock, not modelled cycles — the software
    proof that the paper's decoupled architecture keeps the
    application core running while tracking proceeds elsewhere.

    Because the channel is a FIFO and the VM's event stream is
    deterministic (seeded scheduling), the helper processes exactly
    the event sequence an inline engine would, so {!run} and
    {!run_inline} produce identical {!result}s — asserted by the
    cross-validation tests in [test/test_parallel.ml].

    Helper-side exceptions (from the engine or a client [on_sink]
    callback) abort the channel, so the application domain cannot
    deadlock on a full queue, and are re-raised from {!run} after the
    join. *)

open Dift_isa
open Dift_vm
open Dift_core

module Bool_engine : module type of Engine.Make (Taint.Bool)

(** The functional outcome of a tracked run — everything that must be
    identical between the parallel and the sequential runtime. *)
type result = {
  outcome : Event.outcome;
  events : int;  (** events the engine processed *)
  sources : int;  (** taint injections at input reads *)
  sink_hits : int;  (** sinks reached by tainted data *)
  sink_trace_hash : int;
      (** order-sensitive hash of every sink observation
          [(sink, taint, step)] *)
  tainted_locations : int;
  shadow_words : int;
  taint_fingerprint : int;
      (** hash of the full final shadow state
          ({!Dift_core.Engine.Make.fingerprint}) *)
}

(** {1 Supervised outcomes}

    The [_result] runtimes ({!run_result}, {!run_sharded_result})
    never re-raise a failure: every shutdown leg — helper crash
    mid-drain, application crash mid-run, spawn failure, an injected
    channel fault, a {!Watchdog} deadline miss — joins every domain it
    started and comes back as a structured {!error}, so a driver can
    distinguish {e which} side failed and still read coherent partial
    statistics.  The classic {!run}/{!val-run_sharded} wrappers
    re-raise [e_exn] for compatibility. *)

(** Which leg of the protocol failed first. *)
type leg =
  [ `App  (** the application domain (including a trailing-flush
              failure on its side of the channel) *)
  | `Helper  (** the single helper domain of {!run} *)
  | `Shard of int  (** the first sharded helper that died of its own
                       exception (not of the [Shard_dead] cascade) *)
  | `Spawn  (** [Domain.spawn] itself failed; no run happened *)
  | `Deadline
    (** the {!Watchdog} detected a wedged seam and cascaded the
        shutdown; [e_exn] is {!Watchdog.Deadline_exceeded} naming the
        stalled seam, its frozen epoch and how long it was blocked.
        Whatever the legs then died of is in [e_secondary]. *) ]

(** Channel accounting at the moment the error was assembled — enough
    to reconcile how much work was fed, delivered and lost. *)
type partial = {
  p_events : int;  (** events accepted by the channel(s) *)
  p_batches : int;  (** batches actually delivered *)
  p_dropped_batches : int;  (** batches lost producer-side *)
  p_dropped_events : int;  (** events inside those batches *)
  p_wall_ns : int;  (** wall time since the runtime was entered *)
}

type error = {
  e_leg : leg;
  e_exn : exn;  (** the primary failure *)
  e_secondary : exn list;
      (** failures of the {e other} legs, observed while shutting
          down (e.g. the helper's cascade after an app crash) *)
  e_partial : partial;
}

(** One line: failing leg, primary exception, secondary count and the
    partial channel accounting. *)
val pp_error : error Fmt.t

(** How a run that lost its parallel plane was completed anyway
    ([~degrade:`Inline]): the failing leg and its exception.  Both
    runtimes complete the same way, by a full inline rerun of the
    whole program on a fresh engine. *)
type degraded = { d_leg : leg; d_exn : exn }

val pp_degraded : degraded Fmt.t

type report = {
  result : result;
  queue_capacity : int;  (** ring slots, in batches *)
  batch_size : int;  (** events per batch *)
  filtered_events : int;
      (** events dropped producer-side by the taint-liveness filter
          ([0] with the filter off); [result.events] already adds them
          back, so it counts whole-program events on every
          configuration *)
  batches : int;  (** ring messages actually delivered *)
  dropped_batches : int;
      (** batches lost producer-side (post-abort or injected); always
          [0] on a clean un-injected run *)
  dropped_events : int;  (** events inside [dropped_batches] *)
  producer_stalls : int;
      (** times the application domain blocked on a full ring *)
  consumer_waits : int;
      (** times the helper domain blocked on an empty ring *)
  main_wall_ns : int;  (** application-domain run time *)
  total_wall_ns : int;  (** until the helper joined *)
  degraded : degraded option;
      (** [Some _] iff the parallel plane failed and the run was
          completed by the degraded-mode inline rerun; the [result]
          is then still bit-identical to {!run_inline}'s *)
}

type inline_report = {
  i_result : result;
  i_wall_ns : int;
}

(** [run program ~input] executes [program] in the current domain
    while a spawned helper domain performs the taint tracking.

    [queue_capacity] (default 64) and [batch_size] (default 64) shape
    the forwarding channel.  [on_sink] runs {e on the helper domain}
    for every sink event.  Exceptions raised helper-side are re-raised
    here after the application run completes.

    With [?obs], the run is fully instrumented into the registry: the
    VM's [vm.*] counters ({!Dift_vm.Obs_tool}), the engine's
    [core.engine.*]/[core.shadow.*] gauges, the channel's
    [parallel.ring.*]/[parallel.forwarder.*] metrics, and
    [parallel.helper.*] (busy/wall time, a [parallel.helper.batch]
    span over per-batch propagation latency, and a derived utilization
    percentage).  The registry may be snapshotted from any domain,
    including while the run is in flight.

    With [?trace], the run is recorded on an execution timeline
    ({!Dift_obs.Trace}) with one track per domain: the application
    track (named ["app"]) carries the [app.run] span and the
    producer's [ring.enqueue]/[ring.stall] spans, the helper track
    (named ["helper"]) carries the [helper.drain] envelope, one
    [engine.batch] span per propagated batch, the consumer's
    [ring.dequeue]/[ring.wait] spans, and the engine's shadow-footprint
    counter samples; both sides feed the [ring.occupancy] counter
    track.  Export with {!Dift_obs.Trace.write} after the run.

    Events travel as interned sites and flat {!Codec} batches, encoded
    straight from the machine's view — no allocation per forwarded
    event or batch in the steady state.  With [~forward_filter:true],
    the application domain
    additionally drops events that provably cannot touch live taint
    (see {!Livefilter}); results stay bit-identical — only
    [filtered_events] and the forwarded volume change.  The filter
    stands down silently under [propagate_control].

    With [?chaos], every channel operation and the helper spawn
    consult the fault plan (see {!Chaos}); without it the runtime
    takes its ordinary direct path.

    With [?watchdog], every blocking seam publishes progress into the
    watchdog's table — ring parks as [parallel.push]/[parallel.pop],
    the spawn window as [spawn.helper], the join as [join.helper] —
    and the runtime registers its cascade hook (abort the channel), so
    a wedged peer is torn down after its deadline and surfaced as a
    [`Deadline] error instead of hanging the run (see {!Watchdog}).
    The caller creates and {!Watchdog.stop}s the watchdog; one
    watchdog supervises one run.

    With [~degrade:`Inline], a failure of any non-application leg
    (helper crash, spawn failure, deadline miss) no longer ends the
    run: the application domain reruns the whole program inline on a
    fresh engine — the report comes back [Ok], flagged [degraded],
    with a [result] bit-identical to {!run_inline}'s and the channel
    counters of the failed attempt.  A client [on_sink] callback then
    fires on the calling domain for every sink of the rerun, after
    whatever the helper delivered before it failed.  If the rerun
    itself fails, the original error returns with the rerun exception
    appended to [e_secondary].

    With [?flight], both domains record their recent structured
    events on the always-on flight recorder ({!Dift_obs.Flight}):
    the application ring is named ["app"] and carries [run.start],
    the channel's producer-side [ring.*] events and the final
    [run.done]/[run.error] marker; the helper ring is named
    ["helper"] and carries [helper.start], the consumer-side
    [ring.*] events and the engine's [engine.progress] milestones.
    Recording is bounded and never blocks — see
    [docs/observability.md].

    @raise Invalid_argument if [queue_capacity] or [batch_size] is
    [< 1]. *)
val run :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?watchdog:Watchdog.t ->
  ?degrade:[ `Inline ] ->
  ?queue_capacity:int ->
  ?batch_size:int ->
  ?forward_filter:bool ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  Program.t ->
  input:int array ->
  report

(** Supervised {!run}: identical on success; every failure leg joins
    the helper and returns a structured {!error} instead of raising.
    {!run} is [run_result] with [Error e] re-raised as [e.e_exn]. *)
val run_result :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?watchdog:Watchdog.t ->
  ?degrade:[ `Inline ] ->
  ?queue_capacity:int ->
  ?batch_size:int ->
  ?forward_filter:bool ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  Program.t ->
  input:int array ->
  (report, error) Stdlib.result

(** The sequential baseline: the same engine attached inline in the
    current domain, reported in the same shape.  [?obs] instruments
    the VM and engine as in {!run} (no [parallel.*] group — there is
    no channel); [?trace] records a single-track timeline ([app.run]
    span plus engine counter samples, all on the calling domain);
    [?flight] names the calling domain's recorder ring ["app"] and
    records the engine's [engine.progress] milestones on it. *)
val run_inline :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  Program.t ->
  input:int array ->
  inline_report

(** {1 The sharded N-helper runtime}

    {!run_sharded} generalises {!run} from one helper domain to [N]:
    a {!Router} partitions shadow memory across shards by block
    interleaving the {!Dift_vm.Loc} encoding, the application domain
    routes each forwarded event to the shards it touches over
    per-shard {!Channel}s, and events spanning shards are
    resolved by {!Shard_engine}'s two-phase read-request/taint-reply
    exchange (or conservatively broadcast — see
    {!Shard_engine.route}).  Results merge deterministically at join:
    sharded(N), sharded(1), {!run} and {!run_inline} all produce the
    same {!result} — asserted kernel-by-kernel and property-tested in
    [test/test_sharded.ml]. *)

(** What {!run_sharded} reports on top of the merged {!result}:
    routing and exchange volume, plus per-shard activity. *)
type sharded_report = {
  s_result : result;  (** merged, comparable against {!run_inline} *)
  s_shards : int;
  s_route : Shard_engine.route;
  s_queue_capacity : int;  (** per-shard inbound ring slots *)
  s_batch_size : int;  (** events per inbound batch *)
  s_filtered_events : int;
      (** events dropped producer-side by the taint-liveness filter
          ([0] with the filter off); [s_result.events] already adds
          them back *)
  s_cross_events : int;  (** events that spanned shards *)
  s_exchange_messages : int;  (** taint vectors through the mesh *)
  s_per_shard : Shard_engine.shard_stat array;
  s_main_wall_ns : int;  (** application-domain run time *)
  s_total_wall_ns : int;  (** until the last shard joined *)
  s_degraded : degraded option;
      (** [Some _] iff the cluster failed and the run was completed by
          the degraded-mode inline rerun, as in {!run};
          [s_result] is then still bit-identical to {!run_inline}'s *)
}

(** [run_sharded ~shards program ~input] executes [program] in the
    current domain while [shards] helper domains track taint, each
    owning a disjoint slice of shadow memory.

    [route] picks the cross-shard strategy (default [`Request_reply];
    that route rejects policies with [propagate_control] — use
    [`Broadcast] for control-flow tracking).  [block_bits] sets the
    interleaving granularity ({!Router.default_block_bits} aligns
    blocks with register frames).  [queue_capacity]/[batch_size]
    shape each shard's inbound channel and [xchg_capacity] each
    exchange ring.

    Unlike {!run}, [on_sink] fires on the {e calling} domain after the
    join, in global step order (the deterministic merge); the hash and
    counts in [s_result] are nevertheless bit-identical to the
    streaming runtimes.

    With [?obs], each shard's channel publishes under
    [parallel.shard<i>.*] alongside per-shard busy/wall/utilization
    gauges and the router's [parallel.router.cross_events]; with
    [?trace], each shard gets its own [shard-<i>] track of batch and
    ring spans next to the [app] track.

    [forward_filter] behaves as in {!run} (the filter keeps one
    liveness epoch per shard and stands down under
    [propagate_control]).

    With [?chaos], the fault plan is threaded through every shard's
    inbound channel, every exchange ring and the domain spawns (see
    {!Shard_engine.Make.cluster}).

    With [?watchdog], every blocking seam of the cluster publishes
    progress — feed rings ([parallel.shard<i>.push]/[.pop]), exchange
    rings ([xchg.<src>.<dst>.push]/[.pop]), spawn windows
    ([spawn.shard<i>]), the join fan-in ([join.shard<i>]) and a
    per-view work pulse ([work.shard<i>]) — and the cluster registers
    its cascade hooks in dependency order (each feed channel, then the
    mesh), so a wedged shard or exchange leg is torn down after its
    deadline and surfaced as a [`Deadline] error.  With
    [~degrade:`Inline], any non-application failure is completed by
    the same full inline rerun as {!run}'s — [Ok], flagged
    [s_degraded], bit-identical to {!run_inline}.

    With [?flight], the application ring (named ["app"]) records
    [run.start], producer-side [ring.*] events for every shard
    channel and the final [run.done]/[run.error] marker, and each
    shard ring (named ["shard-<i>"]) records [shard.start],
    consumer-side [ring.*] events, the exchange-mesh [xchg.*] legs,
    [engine.progress] milestones and — if the shard dies of its own
    exception — a terminal [shard.crash] event.

    @raise Invalid_argument if [shards], [queue_capacity] or
    [batch_size] is [< 1]. *)
val run_sharded :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?watchdog:Watchdog.t ->
  ?degrade:[ `Inline ] ->
  ?route:Shard_engine.route ->
  ?queue_capacity:int ->
  ?batch_size:int ->
  ?xchg_capacity:int ->
  ?block_bits:int ->
  ?forward_filter:bool ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  shards:int ->
  Program.t ->
  input:int array ->
  sharded_report

(** Supervised {!val-run_sharded}: identical on success; every failure
    (a shard's own crash, the [Shard_dead] cascade, an application
    crash, a spawn failure) joins all domains and returns a structured
    {!error} with the failing shard identified in [e_leg].
    {!val-run_sharded} is [run_sharded_result] with [Error e]
    re-raised as [e.e_exn]. *)
val run_sharded_result :
  ?config:Machine.config ->
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?watchdog:Watchdog.t ->
  ?degrade:[ `Inline ] ->
  ?route:Shard_engine.route ->
  ?queue_capacity:int ->
  ?batch_size:int ->
  ?xchg_capacity:int ->
  ?block_bits:int ->
  ?forward_filter:bool ->
  ?policy:Policy.t ->
  ?on_sink:(Engine.sink -> bool -> Event.exec -> unit) ->
  shards:int ->
  Program.t ->
  input:int array ->
  (sharded_report, error) Stdlib.result

(** One-line summary of a sharded run (shard count, route, exchange
    volume, wall times); combine with {!pp_result} for the merged
    outcome. *)
val pp_sharded_report : sharded_report Fmt.t

(** {1 Baselines and comparisons} *)

(** Wall time of an uninstrumented run (the native baseline). *)
val native_wall_ns :
  ?config:Machine.config -> Program.t -> input:int array -> int

(** [speedup inline parallel]: inline wall time over parallel total
    wall time ([> 1.] when offloading wins). *)
val speedup : inline_report -> report -> float

(** Application-domain slowdown of the parallel run over an inline
    run ([< 1.] when the main domain finishes faster than inline —
    the paper's main-core overhead, wall-clock edition). *)
val main_ratio : inline_report -> report -> float

(** Outcome, event/source/sink counts and shadow footprint on one
    line. *)
val pp_result : result Fmt.t

(** Channel geometry, {!pp_result}, batch/stall/wait counts and wall
    times. *)
val pp_report : report Fmt.t

(** {!pp_result} plus the inline wall time. *)
val pp_inline_report : inline_report Fmt.t
