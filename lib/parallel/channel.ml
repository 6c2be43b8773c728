(** Batched event forwarding over the {!Spsc} ring (paper §2.1); see
    the interface for the protocol.

    A ring slot carries one {!Codec.batch}: flat lanes plus a fill
    count, so a partial flush (the trailing batch at {!close}) hands
    the consumer its length instead of a copy.  Drained batches come
    back to the producer over a second, never-blocking {!Spsc} ring
    (the free ring), preloaded with the whole pool at creation.  The
    end of the stream and "no open batch" are both marked by one
    sentinel batch that is never pushed, so neither side boxes an
    option per batch. *)

open Dift_vm

type t = {
  table : Site.table;
  enc : Codec.encoder;
  ring : Codec.batch Spsc.t;
  free : Codec.batch Spsc.t;  (** spent batches coming back for reuse *)
  batch_size : int;
  none : Codec.batch;
      (** the sentinel: no open batch, end of stream; physically
          unique per channel, never pushed *)
  mutable cur : Codec.batch;  (** producer side; [none] when no batch is open *)
  mutable draining : Codec.batch;  (** consumer side: the batch being decoded *)
  scratch : Event.view;  (** consumer side: every event decodes into it *)
  mutable events : int;
  mutable batches : int;  (** batches actually enqueued on the ring *)
  mutable dropped_batches : int;
      (** producer-side losses: post-abort pushes and injected push
          failures (written only by the producer domain) *)
  mutable dropped_events : int;
  mutable discarded_batches : int;
      (** consumer-side losses: batches popped but not processed
          (injected pop failures and the post-abort sweep; written
          only by the consumer) *)
  mutable discarded_events : int;
  mutable consumed_batches : int;
      (** batches fully processed by {!drain} (written only by the
          consumer) *)
  mutable consumed_events : int;
  chaos : Chaos.inst option;
      (** fault-injection seam; [None] is the direct Spsc path *)
  chaos_free : Chaos.inst option;
      (** the free ring's seam (namespace [ring.free.<ns>], targeted
          rules only).  Free-ring faults never lose events — a failed
          pop allocates fresh, a failed push lets the batch fall to the
          GC. *)
  occupancy : Dift_obs.Registry.histogram option;
      (** events per pushed batch, when observability is on *)
  trace : Dift_obs.Trace.t option;
  flight : Dift_obs.Flight.t option;
  ns : string;  (** metric namespace, doubles as the flight category *)
  push_prog : Dift_obs.Progress.leg option;
      (** [<ns>.push]: armed while parked on a full ring, ticked per
          delivered batch *)
  pop_prog : Dift_obs.Progress.leg option;
      (** [<ns>.pop]: armed while parked on an empty ring, ticked per
          consumed batch *)
}

(* Power-of-two occupancy buckets up to the batch size: a full batch
   lands in the last real bucket, so the overflow bucket staying at
   zero is itself an invariant check. *)
let occupancy_buckets batch_size =
  let rec up acc b =
    if b >= batch_size then List.rev (batch_size :: acc)
    else up (b :: acc) (b * 2)
  in
  up [] 1

(* The ring's gauges and the occupancy histogram, registered before
   the channel exists; [ledger_obs] adds the counters it owns. *)
let ring_obs reg ~ns ~batch_size ring =
  let open Dift_obs in
  let gauge name help f = Registry.gauge_fn reg (ns ^ name) ~help f in
  gauge ".ring.capacity_batches" "ring slots" (fun () -> Spsc.capacity ring);
  gauge ".ring.stalls" "producer blocked on a full ring" (fun () ->
      Spsc.producer_stalls ring);
  gauge ".ring.waits" "consumer blocked on an empty ring" (fun () ->
      Spsc.consumer_waits ring);
  gauge ".ring.drops" "batches dropped after abort" (fun () ->
      Spsc.dropped ring);
  Registry.histogram reg (ns ^ ".forwarder.batch_occupancy")
    ~help:"events per pushed batch"
    ~buckets:(occupancy_buckets batch_size)

let ledger_obs t reg =
  let gauge name help f =
    Dift_obs.Registry.gauge_fn reg (t.ns ^ name) ~help f
  in
  gauge ".forwarder.events" "events forwarded" (fun () -> t.events);
  gauge ".forwarder.batches" "batches delivered to the ring" (fun () ->
      t.batches);
  gauge ".forwarder.dropped_batches"
    "batches lost on the producer side (abort/injected)" (fun () ->
      t.dropped_batches);
  gauge ".forwarder.dropped_events"
    "events lost on the producer side (abort/injected)" (fun () ->
      t.dropped_events);
  gauge ".forwarder.discarded_batches"
    "batches popped but not processed (injected pop failure)" (fun () ->
      t.discarded_batches);
  gauge ".forwarder.discarded_events"
    "events popped but not processed (injected pop failure)" (fun () ->
      t.discarded_events);
  gauge ".forwarder.consumed_batches" "batches fully processed by the consumer"
    (fun () -> t.consumed_batches);
  gauge ".forwarder.consumed_events" "events fully processed by the consumer"
    (fun () -> t.consumed_events);
  gauge ".ring.in_flight_batches" "batches delivered but not yet popped"
    (fun () -> Spsc.length t.ring)

let create ?obs ?trace ?flight ?chaos ?progress ?(escalate = false)
    ?(ns = "parallel") ?wire:(_ : [ `Coded ] option) ~queue_capacity
    ~batch_size ~table () =
  if queue_capacity < 1 then
    invalid_arg
      (Fmt.str "Channel.create: queue_capacity = %d < 1" queue_capacity);
  if batch_size < 1 then
    invalid_arg (Fmt.str "Channel.create: batch_size = %d < 1" batch_size);
  let table = Lazy.force table in
  let leg side =
    Option.map (fun p -> Dift_obs.Progress.leg p (ns ^ side)) progress
  in
  let push_prog = leg ".push" and pop_prog = leg ".pop" in
  let ring =
    Spsc.create ?push_leg:push_prog ?pop_leg:pop_prog
      ~capacity:queue_capacity ()
  in
  (* the pool: the ring's worth plus the batch open on each side, so
     the producer always finds one on the free ring *)
  let pool = queue_capacity + 2 in
  let free = Spsc.create ~capacity:pool () in
  for _ = 1 to pool do
    ignore (Spsc.try_push free (Codec.batch_create ~events_per_batch:batch_size)
            : bool)
  done;
  let none = Codec.batch_create ~events_per_batch:1 in
  let r0 = Site.row table 0 in
  let t =
    {
      table;
      enc = Codec.encoder table;
      ring;
      free;
      batch_size;
      none;
      cur = none;
      draining = none;
      scratch = Event.view_create ~func:r0.Site.s_func ~instr:r0.Site.s_instr;
      events = 0;
      batches = 0;
      dropped_batches = 0;
      dropped_events = 0;
      discarded_batches = 0;
      discarded_events = 0;
      consumed_batches = 0;
      consumed_events = 0;
      chaos = Option.map (fun c -> Chaos.instance ~escalate c ~ns) chaos;
      chaos_free =
        Option.map
          (fun c ->
            Chaos.instance ~targeted_only:true c ~ns:("ring.free." ^ ns))
          chaos;
      occupancy = Option.map (fun reg -> ring_obs reg ~ns ~batch_size ring) obs;
      trace;
      flight;
      ns;
      push_prog;
      pop_prog;
    }
  in
  Option.iter (ledger_obs t) obs;
  t

let events t = t.events
let batches t = t.batches
let producer_stalls t = Spsc.producer_stalls t.ring
let consumer_waits t = Spsc.consumer_waits t.ring
let dropped_batches t = t.dropped_batches
let dropped_events t = t.dropped_events
let discarded_batches t = t.discarded_batches
let discarded_events t = t.discarded_events
let consumed_batches t = t.consumed_batches
let consumed_events t = t.consumed_events
let in_flight_batches t = Spsc.length t.ring
let aborted t = Spsc.aborted t.ring

(* One bounded flight event on the acting domain's ring; free when the
   recorder is off (one branch, nothing boxed). *)
let flight_ev t name a b =
  match t.flight with
  | None -> ()
  | Some fl -> Dift_obs.Flight.record fl ~a ~b ~cat:t.ns name

let tick = function Some l -> Dift_obs.Progress.tick l | None -> ()

(* -- producer ----------------------------------------------------------- *)

(* Push one batch, recording the producer's side of the timeline: a
   span named [ring.stall] when the push parked on a full ring (a
   backpressure wave) and [ring.enqueue] otherwise, then a sample of
   the ring occupancy. *)
let traced_push t b =
  match t.trace with
  | None -> Spsc.push t.ring b
  | Some tr ->
      let open Dift_obs in
      let stalls0 = Spsc.producer_stalls t.ring in
      let t0 = Trace.now_ns tr in
      Spsc.push t.ring b;
      let dur_ns = Trace.now_ns tr - t0 in
      let name =
        if Spsc.producer_stalls t.ring > stalls0 then "ring.stall"
        else "ring.enqueue"
      in
      Trace.complete_ns tr ~cat:"parallel" name ~start_ns:t0 ~dur_ns;
      Trace.counter tr ~cat:"parallel" "ring.occupancy" (Spsc.length t.ring)

(* The producer lost this batch: its events were accepted but will
   never reach the consumer. *)
let account_drop t (b : Codec.batch) =
  t.dropped_batches <- t.dropped_batches + 1;
  t.dropped_events <- t.dropped_events + b.b_n;
  flight_ev t "ring.drop" b.b_n t.dropped_batches

(* Only the producer increments [Spsc.dropped], so the delta around the
   push tells exactly whether this batch landed on the ring or fell to
   a post-abort counted drop. *)
let deliver t (b : Codec.batch) =
  let d0 = Spsc.dropped t.ring in
  traced_push t b;
  if Spsc.dropped t.ring > d0 then account_drop t b
  else begin
    t.batches <- t.batches + 1;
    tick t.push_prog;
    flight_ev t "ring.push" b.b_n (Spsc.length t.ring)
  end

let flush t =
  let b = t.cur in
  let n = b.Codec.b_n in
  if n > 0 then begin
    (* the consumer takes ownership of the batch; the next event opens
       another off the free ring *)
    t.cur <- t.none;
    t.events <- t.events + n;
    (match t.occupancy with
    | Some h -> Dift_obs.Registry.observe h n
    | None -> ());
    match t.chaos with
    | None -> deliver t b
    | Some c -> (
        match Chaos.on_push c with
        | Chaos.Proceed -> deliver t b
        | Chaos.Fail -> account_drop t b
        | Chaos.Abort_now ->
            (* the consumer side dies under us: tear the ring down,
               then let the push become a counted drop *)
            Spsc.abort t.ring;
            deliver t b
        | Chaos.Raise_now e ->
            account_drop t b;
            raise e)
  end

let fresh t = Codec.batch_create ~events_per_batch:t.batch_size

let recycled t =
  let b = Spsc.try_pop_or t.free ~none:t.none in
  if b == t.none then fresh t else b

(* The open batch: the current one, or the next off the free ring (the
   pool cycles, no allocation), or — when a fault broke the cycle — a
   fresh one.  An injected [ring.free.<ns>/pop] fault degrades
   recycling: a [Drop] skips the free ring for this batch, an [Abort]
   kills it for good, a [Raise] crashes the producer. *)
let open_batch t =
  if t.cur != t.none then t.cur
  else begin
    let b =
      match t.chaos_free with
      | None -> recycled t
      | Some c -> (
          match Chaos.on_pop c with
          | Chaos.Proceed -> recycled t
          | Chaos.Fail -> fresh t
          | Chaos.Abort_now ->
              Spsc.abort t.free;
              fresh t
          | Chaos.Raise_now e -> raise e)
    in
    t.cur <- b;
    b
  end

let add_view t v =
  let b = open_batch t in
  Codec.encode_view t.enc b v;
  if b.Codec.b_n = t.batch_size then flush t

let add t e =
  let b = open_batch t in
  Codec.encode t.enc b e;
  if b.Codec.b_n = t.batch_size then flush t

let close t =
  flush t;
  Spsc.close t.ring;
  flight_ev t "ring.close" t.events t.batches

let abort t =
  Spsc.abort t.ring;
  flight_ev t "ring.abort" 0 0

(* -- consumer ----------------------------------------------------------- *)

(* Pop one batch ([t.none] at the end of the stream), recording the
   consumer's side of the timeline: a span named [ring.wait] when the
   pop parked on an empty ring (a helper idle episode) and
   [ring.dequeue] otherwise, then a sample of the ring occupancy. *)
let traced_pop t =
  match t.trace with
  | None -> Spsc.pop_or t.ring ~none:t.none
  | Some tr ->
      let open Dift_obs in
      let waits0 = Spsc.consumer_waits t.ring in
      let t0 = Trace.now_ns tr in
      let b = Spsc.pop_or t.ring ~none:t.none in
      let dur_ns = Trace.now_ns tr - t0 in
      let name =
        if Spsc.consumer_waits t.ring > waits0 then "ring.wait"
        else "ring.dequeue"
      in
      Trace.complete_ns tr ~cat:"parallel" name ~start_ns:t0 ~dur_ns;
      Trace.counter tr ~cat:"parallel" "ring.occupancy" (Spsc.length t.ring);
      b

(* A batch popped but not processed — the consumer-side loss mirror of
   [account_drop]. *)
let account_discard t (b : Codec.batch) =
  t.discarded_batches <- t.discarded_batches + 1;
  t.discarded_events <- t.discarded_events + b.b_n;
  flight_ev t "ring.discard" b.b_n t.discarded_batches

(* Hand a spent batch back to the producer; if the free ring is full
   (a fresh batch joined the pool after a fault) or an injected
   [ring.free.<ns>/push] fault fires, the batch falls to the GC. *)
let recycle t b =
  Codec.batch_clear b;
  match t.chaos_free with
  | None -> ignore (Spsc.try_push t.free b : bool)
  | Some c -> (
      match Chaos.on_push c with
      | Chaos.Proceed -> ignore (Spsc.try_push t.free b : bool)
      | Chaos.Fail -> ()
      | Chaos.Abort_now -> Spsc.abort t.free
      | Chaos.Raise_now e -> raise e)

(* Close the in-flight accounting gap: [Spsc.pop] honours the abort
   flag before buffered elements, so batches already delivered when an
   abort lands would otherwise vanish from the books.  After any abort
   the producer can no longer publish, so sweeping the buffer into the
   discard counters makes the ledgers reconcile. *)
let sweep t =
  if Spsc.aborted t.ring then begin
    let nb = ref 0 and ne = ref 0 in
    let rec go () =
      match Spsc.pop_remaining t.ring with
      | Some b ->
          incr nb;
          ne := !ne + b.Codec.b_n;
          account_discard t b;
          recycle t b;
          go ()
      | None -> ()
    in
    go ();
    if !nb > 0 then flight_ev t "ring.sweep" !nb !ne
  end

let drain ?(around_batch = fun k -> k ()) ?(after_batch = fun ~last_step:_ -> ())
    t ~f =
  let v = t.scratch in
  (* one thunk per drain, decoding whichever batch [t.draining] holds,
     so [around_batch] costs no closure per batch *)
  let decode_batch () =
    let b = t.draining in
    let n = b.Codec.b_n in
    for i = 0 to n - 1 do
      Codec.decode_into t.table b i v;
      f v
    done;
    if n > 0 then after_batch ~last_step:b.Codec.b_step.(n - 1)
  in
  (* [true] = the batch was fully processed; [false] = it became a
     counted discard.  An injected raise propagates un-accounted — the
     caller's handler books the batch. *)
  let consume b =
    match
      match t.chaos with None -> Chaos.Proceed | Some c -> Chaos.on_pop c
    with
    | Chaos.Proceed ->
        t.draining <- b;
        around_batch decode_batch;
        true
    | Chaos.Fail ->
        account_discard t b;
        false
    | Chaos.Abort_now ->
        (* consumer gives up: the next pop sees the abort, drain sweeps
           and terminates; this batch is a counted discard *)
        Spsc.abort t.ring;
        account_discard t b;
        false
    | Chaos.Raise_now e -> raise e
  in
  let rec loop () =
    let b = traced_pop t in
    if b == t.none then sweep t
    else begin
      let processed =
        try consume b
        with e ->
          (* the batch in hand is neither processed nor yet counted:
             book it before the exception escapes, or it would leave
             the accounting open *)
          t.draining <- t.none;
          account_discard t b;
          recycle t b;
          raise e
      in
      t.draining <- t.none;
      if processed then begin
        t.consumed_batches <- t.consumed_batches + 1;
        t.consumed_events <- t.consumed_events + b.Codec.b_n;
        tick t.pop_prog;
        flight_ev t "ring.pop" b.Codec.b_n (Spsc.length t.ring)
      end;
      recycle t b;
      loop ()
    end
  in
  (* A consumer dying mid-drain must not leave the producer parked
     against a full ring: tear the channel down first, so the
     producer's outstanding and subsequent pushes become counted drops
     instead of a wedge — then sweep what was already delivered so it
     is counted too. *)
  try loop ()
  with e ->
    Spsc.abort t.ring;
    sweep t;
    raise e
