(** The forwarding channel between an application core and a DIFT
    helper core (paper §2.1): encoded {!Codec} batches carried over a
    bounded {!Spsc} ring.

    The producer encodes each event straight into the open batch's
    flat lanes ({!Codec.encode_view}) and pushes the batch — one ring
    slot — when it holds [batch_size] events, so channel
    synchronisation is paid once per batch.  The ring capacity is
    counted in batches, and the channel buffers up to
    [queue_capacity * batch_size] events.  The consumer decodes every
    event into one reused {!Dift_vm.Event.view} and hands it to its
    callback, then returns the spent batch to the producer over a
    second, never-blocking ring (the free ring).

    A pool of [queue_capacity + 2] batches — the ring's worth plus the
    one open on each side — is allocated by {!create} and cycles
    producer → consumer → producer, so steady-state forwarding
    allocates nothing per event or per batch on either side: no
    option, no wrapper record, no closure.  A batch falls to the GC
    only when a fault breaks the cycle (an abort, an injected loss,
    a free-ring fault), and the producer then allocates a fresh one.

    The channel is used in two places: {!Parallel.run} forwards the
    whole event stream over a single channel to its one helper, and
    {!Parallel.run_sharded} creates one channel per shard (with a
    per-shard [?ns] metric namespace) and routes each event to the
    shards that participate in it.

    Shutdown protocol: the producer calls {!close}, which flushes the
    trailing partial batch and closes the ring; {!drain} then returns
    once every forwarded event has been consumed.  If the consumer
    fails, {!abort} permanently unblocks the producer (further batches
    are dropped and counted) so the application can finish and observe
    the helper's exception at join time.

    Every event counter is in events and every batch counter in ring
    messages (encoded batches), so the books reconcile as described
    under {!drain}.

    See [docs/forwarding-protocol.md] for the full protocol. *)

open Dift_vm

(** A forwarding channel.  Strictly one producer domain and one
    consumer domain, like the underlying {!Spsc} ring. *)
type t

(** [create ~queue_capacity ~batch_size ~table ()] — a ring of
    [queue_capacity] batch slots, each batch holding up to
    [batch_size] events encoded against the interned site [table]
    (forced here).  [wire] selects nothing: [`Coded] is the only
    encoding, and the argument is accepted so that callers passing it
    keep compiling.

    With [?obs], the channel registers its ring gauges (capacity,
    stalls, waits, drops, in-flight batches — all backed by the ring's
    atomic counters, so a snapshot from any domain is safe), its
    ledger gauges ([<ns>.forwarder.events], [.batches],
    [.dropped_*], [.discarded_*], [.consumed_*]) and a
    [<ns>.forwarder.batch_occupancy] histogram of events per pushed
    batch (buckets up to [batch_size]; its sum is the number of events
    delivered or dropped).  [?ns] sets the metric name prefix (default
    ["parallel"], giving [parallel.ring.*] and [parallel.forwarder.*]);
    the sharded runtime passes [parallel.shard<i>] so each shard's
    channel publishes its own series.

    With [?trace], the channel records the execution timeline of every
    ring transfer (category [parallel]): each pushed batch becomes a
    [ring.enqueue] span on the producer's track — named [ring.stall]
    when the push parked on a full ring, so backpressure waves are
    visible — each pop a [ring.dequeue] span on the consumer's track
    (named [ring.wait] when it parked on an empty ring, a helper idle
    episode), and both sides sample the [ring.occupancy] counter track
    after every transfer.

    With [?flight], the channel records one bounded flight-recorder
    event per channel operation on the acting domain's ring, in the
    category of the channel's [?ns]: [ring.push]/[ring.pop] (a = events
    in the batch, b = ring occupancy after), [ring.drop]/[ring.discard]
    (a = events in the batch, b = running loss count), [ring.close]
    (a = events, b = batches), [ring.abort], and [ring.sweep]
    (a = batches, b = events recovered by the post-abort sweep).  See
    the event catalogue in [docs/observability.md].

    With [?chaos], every batch push and batch pop consults the
    fault-injection plan (see {!Chaos}): the channel derives a
    {!Chaos.inst} for its namespace, injected push failures become
    counted {!dropped_batches}, injected pop failures become counted
    {!discarded_batches}, and injected raises surface from
    {!add}/{!flush}/{!drain} after accounting.  The free ring is a
    second seam, one instance per channel under the namespace
    [ring.free.<ns>], matched by {e explicitly targeted} rules only (a
    bare [pop@1=raise] still means the event ring): a [drop] skips
    recycling once (the producer allocates a fresh batch, or the
    consumer lets the spent one fall to the GC), an [abort] disables
    the free ring for good (every batch thereafter is allocated fresh
    — pure degradation, no event loss), a [raise] crashes the side it
    intercepts.  Without [?chaos] the channel takes the direct [Spsc]
    path — no per-operation overhead.

    With [?progress], the channel registers two {!Dift_obs.Progress}
    legs — [<ns>.push] and [<ns>.pop] — armed while the corresponding
    side is parked (full ring / empty ring) and ticked once per
    delivered resp. consumed batch, so a watchdog can tell a busy
    channel from a wedged one.  The free ring registers no legs: it
    never blocks.  Without [?progress] the hot path is untouched.

    [escalate] (default [false]) marks a channel whose losses would
    wedge a protocol riding on it: injected drop/abort faults are then
    served as raises instead of counted losses (see
    {!Chaos.instance}).  The sharded engine sets it on the
    request/reply feed rings.
    @raise Invalid_argument if either size is [< 1]. *)
val create :
  ?obs:Dift_obs.Registry.t ->
  ?trace:Dift_obs.Trace.t ->
  ?flight:Dift_obs.Flight.t ->
  ?chaos:Chaos.t ->
  ?progress:Dift_obs.Progress.t ->
  ?escalate:bool ->
  ?ns:string ->
  ?wire:[ `Coded ] ->
  queue_capacity:int ->
  batch_size:int ->
  table:Site.table Lazy.t ->
  unit ->
  t

(** {1 Producer (application-core) side} *)

(** Encode the event a view describes (read during the call only) and
    push the open batch when it reaches [batch_size], blocking while
    the ring is full. *)
val add_view : t -> Event.view -> unit

(** {!add_view} of a boxed record. *)
val add : t -> Event.exec -> unit

(** Push the open partial batch, if any.  The sharded router calls
    this after every cross-shard event so no participant's copy can
    sit in an open batch while a peer shard blocks waiting for it. *)
val flush : t -> unit

(** Flush and close the ring: no more events will be forwarded. *)
val close : t -> unit

(** {1 Consumer (helper-core) side} *)

(** [drain t ~f] decodes every forwarded event in program order into
    the channel's scratch view and applies [f] to it; returns when the
    channel is closed and fully drained.  The view is {e reused}: [f]
    must not retain it (call {!Dift_vm.Event.view_to_exec} to
    materialise a snapshot).

    [around_batch] wraps the processing of each popped batch (the
    thunk it receives decodes the whole batch through [f]); the
    runtimes use it to time helper busy periods without a per-event
    clock read.  It must call the thunk exactly once.  [after_batch
    ~last_step:s] runs inside it after each non-empty batch, with the
    step of the batch's last event — the liveness filter's
    epoch-advance hook.

    If [f] (or a hook) raises, the channel is aborted before the
    exception propagates, so a producer parked against a full ring is
    released — its pushes become counted drops instead of a wedge.

    {b Abort accounting.}  When drain ends by abort (its own, an
    injected one, or a raise), it {e sweeps} the batches still
    buffered in the ring into {!discarded_batches} — they were
    delivered but can never be consumed, and the producer cannot
    publish after an abort, so without the sweep up to
    [queue_capacity] batches would vanish from the books.  After both
    domains quiesce the ledgers close exactly:
    [batches = consumed_batches + discarded_batches +
    in_flight_batches] and [events = consumed_events +
    discarded_events + dropped_events] plus the events of the
    in-flight batches, which are non-zero only for a push that raced
    the abort flag itself. *)
val drain :
  ?around_batch:((unit -> unit) -> unit) ->
  ?after_batch:(last_step:int -> unit) ->
  t ->
  f:(Event.view -> unit) ->
  unit

(** Consumer gives up (helper crash): unblocks the producer for good. *)
val abort : t -> unit

(** Whether the ring has been {!abort}ed (atomic; readable from any
    domain). *)
val aborted : t -> bool

(** {1 Accounting} *)

(** Events in batches the producer pushed or lost (an open batch is
    counted when it is pushed). *)
val events : t -> int

(** Batches actually delivered to the ring (ring messages).  A batch
    lost to an abort or an injected failure is {e not} counted here —
    it lands in {!dropped_batches} instead. *)
val batches : t -> int

(** Batches lost on the producer side — pushed after an {!abort}, or
    failed by an injected fault. *)
val dropped_batches : t -> int

(** Events inside {!dropped_batches}. *)
val dropped_events : t -> int

(** Batches popped but not processed — an injected pop failure
    discarded them, or the post-abort sweep recovered them from the
    ring (consumer-side mirror of {!dropped_batches}; always [0]
    without [?chaos] on a clean run). *)
val discarded_batches : t -> int

(** Events inside {!discarded_batches}. *)
val discarded_events : t -> int

(** Batches fully processed by {!drain} (every event saw [f]). *)
val consumed_batches : t -> int

(** Events inside {!consumed_batches}. *)
val consumed_events : t -> int

(** Times the producer blocked on a full ring (backpressure; the
    wall-clock analogue of the simulator's [stall_cycles]). *)
val producer_stalls : t -> int

(** Times the consumer blocked on an empty ring (helper idle
    episodes). *)
val consumer_waits : t -> int

(** Batches delivered to the ring but not yet popped (racy snapshot,
    exact when both sides have quiesced).  The residual term of the
    post-abort ledger — see {!drain}. *)
val in_flight_batches : t -> int
