(* The traced run: each layer's public functions called one at a time
   from the benchmark's own domain, every call recorded as one span on
   the benchmark's [Dift_obs.Trace] (category "layer"), so the
   per-layer figures can be set against the untraced end-to-end
   times of the same process.

   A round starts with the calibration loop of {!Calib} and then has
   two parts, on two heaps.  First, on the small heap the runtimes
   see: the bare VM, the VM with a no-op tool, and the runtime variants
   that are layer diagnostics rather than end-to-end metrics (liveness
   filter, observability attached, and an inline run inside a span).
   Then the round records the program's event stream and replays it
   through the engine, the codec and the shard workers; the stream is
   dropped before the next round, so the recording's heap never
   inflates the VM figures. *)

open Dift_vm
open Dift_core
module R = Runtimes
module Channel = Dift_parallel.Channel
module Codec = Dift_parallel.Codec
module Router = Dift_parallel.Router
module E = Engine.Make (Taint.Bool)
module S = Dift_parallel.Shard_engine.Make (Taint.Bool)

let now_ns = Dift_obs.Clock.now_ns

(* The runtimes' default channel geometry (events per batch). *)
let batch_size = 64

(* Time one layer call and record it as a span. *)
let timed tr name f =
  let start_ns = Dift_obs.Trace.now_ns tr in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f () in
  let dur_ns = now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  Dift_obs.Trace.complete_ns tr ~cat:"layer" name ~start_ns ~dur_ns;
  (x, float_of_int dur_ns, words)

(* The state the traced run keeps across rounds. *)
type t = {
  spec : R.spec;
  reference : R.result;
  tr : Dift_obs.Trace.t;
  table : Site.table Lazy.t;
  two_domains : bool;
  s : Stats.series;
  check : string -> R.run -> unit;  (* counts a tracked run *)
  drift : string -> unit;  (* flags a deterministic count that moved *)
  mutable journals : S.msg list array array option;
  mutable desc : (int * int * int * int) option;
}

let create ~spec ~reference ~tr ~two_domains ~check ~drift =
  {
    spec;
    reference;
    tr;
    table = lazy (Site.of_program spec.R.program);
    two_domains;
    s = Stats.series ();
    check;
    drift;
    journals = None;
    desc = None;
  }

let expect t what ~got ~want =
  if got <> want then
    t.drift (Fmt.str "%s: got %d, reference %d" what got want)

let machine t tools =
  let m = Machine.create t.spec.R.program ~input:t.spec.R.input in
  List.iter (Machine.attach m) tools;
  m

(* -- layers over the runtimes' own heap ------------------------------- *)

let vm_layers t =
  let instrs = R.events t.reference in
  let m = machine t [] in
  Gc.full_major ();
  let _, ns, words = timed t.tr "vm" (fun () -> Machine.run m) in
  expect t "vm.instrs" ~got:(Machine.steps m) ~want:instrs;
  Stats.add t.s "vm.ns" ns;
  Stats.add t.s "vm.words" words;
  let noop = Tool.make ~dispatch_cost:0 ~on_exec:(fun _ -> ()) "bench-noop" in
  let m = machine t [ noop ] in
  Gc.full_major ();
  let _, ns, words = timed t.tr "vm.event" (fun () -> Machine.run m) in
  Stats.add t.s "vm.event.ns" ns;
  Stats.add t.s "vm.event.words" words

let runtime_layers t =
  let call name ?filter ?observe kind =
    let r, _, _ =
      timed t.tr name (fun () -> R.call ?filter ?observe t.spec kind)
    in
    t.check name r;
    r
  in
  let r = call "inline.traced" R.Inline in
  Stats.add t.s "inline.traced_ns" (float_of_int r.R.wall_ns);
  let r = call "obs.inline" ~observe:true R.Inline in
  Stats.add t.s "obs.inline_ns" (float_of_int r.R.wall_ns);
  if t.two_domains then begin
    let r = call "obs.helper" ~observe:true R.Helper in
    Stats.add t.s "obs.helper_ns" (float_of_int r.R.wall_ns);
    let r = call "parallel.livefilter" ~filter:true R.Helper in
    Stats.add t.s "livefilter.helper_ns" (float_of_int r.R.wall_ns);
    match r.R.ring with
    | Some ring ->
        Stats.add t.s "livefilter.filtered"
          (float_of_int ring.R.filtered_events)
    | None -> ()
  end

(* -- layers over the recorded stream ---------------------------------- *)

let record t =
  let acc = ref [] in
  let m =
    machine t
      [
        Tool.make ~dispatch_cost:0
          ~on_exec:(fun e -> acc := e :: !acc)
          "bench-recorder";
      ]
  in
  ignore (Machine.run m);
  Array.of_list (List.rev !acc)

let fresh_engine t =
  let eng = E.create ~policy:t.spec.R.policy t.spec.R.program in
  E.set_charge eng ignore;
  eng

let check_engine t what eng =
  let st = E.stats eng in
  let tainted, words = E.shadow_footprint eng in
  expect t (what ^ " sink hits") ~got:st.Engine.sink_hits
    ~want:(R.sink_hits t.reference);
  expect t (what ^ " tainted locations") ~got:tainted
    ~want:(R.tainted_locations t.reference);
  expect t (what ^ " shadow words") ~got:words
    ~want:(R.shadow_words t.reference)

let engine_layer t events =
  let eng = fresh_engine t in
  let (), ns, words =
    timed t.tr "core.engine" (fun () -> Array.iter (E.process eng) events)
  in
  check_engine t "core.engine" eng;
  Stats.add t.s "engine.ns" ns;
  Stats.add t.s "engine.words" words

(* A coded channel whose ring holds the whole stream, so neither side
   of a single-domain trip ever blocks. *)
let channel t n =
  Channel.create ~wire:`Coded
    ~queue_capacity:((n / batch_size) + 2)
    ~batch_size ~table:t.table ()

let codec_layers t events =
  let n = Array.length events in
  let encode ch =
    timed t.tr "parallel.codec.encode" (fun () ->
        Array.iter (Channel.add ch) events;
        Channel.close ch)
  in
  let ch = channel t n in
  let (), ns, words = encode ch in
  Stats.add t.s "encode.ns" ns;
  Stats.add t.s "encode.words" words;
  let (), ns, _ =
    timed t.tr "parallel.codec.decode" (fun () ->
        Channel.drain ch ~f:(fun _ -> ()))
  in
  Stats.add t.s "decode.ns" ns;
  let ch = channel t n in
  ignore (encode ch);
  let eng = fresh_engine t in
  let (), ns, _ =
    timed t.tr "core.engine.view" (fun () ->
        Channel.drain ch ~f:(E.process_view eng))
  in
  check_engine t "core.engine.view" eng;
  Stats.add t.s "decode_engine.ns" ns

(* The [b_desc] lane's encodings over the stream, and the lane words
   the stream occupies: (compact, explicit, escape, lane words). *)
let desc_counts t events =
  let enc = Codec.encoder (Lazy.force t.table) in
  let b = Codec.batch_create ~events_per_batch:batch_size in
  let compact = ref 0 and explicit = ref 0 and escape = ref 0 in
  let words = ref 0 in
  let flush () =
    for i = 0 to b.Codec.b_n - 1 do
      let d = b.Codec.b_desc.(i) in
      if d < 0 then incr escape
      else if d land 1 = 1 then incr compact
      else incr explicit
    done;
    (* eight integer lanes per event, the overflow words, and one
       pointer per escaped event *)
    words := !words + (8 * b.Codec.b_n) + b.Codec.b_ovf_n + b.Codec.b_esc_n;
    Codec.batch_clear b
  in
  Array.iter
    (fun e ->
      if Codec.batch_length b = Codec.batch_capacity b then flush ();
      Codec.encode enc b e)
    events;
  flush ();
  let counts = (!compact, !explicit, !escape, !words) in
  (match t.desc with
  | Some prev when prev <> counts -> t.drift "parallel.codec desc lane counts"
  | _ -> ());
  t.desc <- Some counts

let route_streams router route events =
  let shards = Router.shards router in
  let cross = ref 0 in
  let buckets = Array.make shards [] in
  Array.iter
    (fun e ->
      let mask = Router.participants router e in
      if not (Router.is_local mask) then incr cross;
      match route with
      | `Broadcast -> Array.iteri (fun s l -> buckets.(s) <- e :: l) buckets
      | `Request_reply ->
          Router.iter_shards mask (fun s -> buckets.(s) <- e :: buckets.(s)))
    events;
  (!cross, Array.map (fun l -> Array.of_list (List.rev l)) buckets)

let worker t ~router ~xchg s =
  S.worker ~policy:t.spec.R.policy ~router ~route:t.spec.R.route ~xchg
    ~record_sinks:false ~shard:s t.spec.R.program

let check_merged t what workers =
  let m = S.merge workers in
  expect t what ~got:m.S.m_fingerprint ~want:(R.fingerprint t.reference)

(* Two shards, concurrently, with journaling on: the calling domain
   plays shard 0 and one spawned domain shard 1, so the process never
   runs more than two domains.  Returns every ring's journal. *)
let journal_pass t router streams =
  let xchg = S.create_xchg ~capacity:256 ~journal:true ~shards:2 () in
  let w = Array.init 2 (worker t ~router ~xchg) in
  let play s () =
    try Array.iter (S.handle w.(s)) streams.(s)
    with e ->
      S.abort_xchg xchg;
      raise e
  in
  let d = Domain.spawn (play 1) in
  let mine = try Ok (play 0 ()) with e -> Error e in
  let theirs = try Ok (Domain.join d) with e -> Error e in
  (match (mine, theirs) with
  | Error e, _ | _, Error e -> raise e
  | Ok (), Ok () -> ());
  check_merged t "parallel.shard (2 shards, concurrent) fingerprint" w;
  Array.init 2 (fun src -> Array.init 2 (fun dst -> S.journal xchg ~src ~dst))

(* Shard [s] replayed alone against exchange rings prefilled from the
   journals: nothing blocks, so the time is that shard's own work. *)
let isolated t ~router ~journals streams s =
  let cap =
    Array.fold_left
      (Array.fold_left (fun acc j -> max acc (List.length j)))
      1 journals
  in
  let xchg = S.create_xchg ~capacity:(cap + 1) ~shards:2 () in
  for src = 0 to 1 do
    if src <> s then S.prefill xchg ~src ~dst:s journals.(src).(s)
  done;
  let w = worker t ~router ~xchg s in
  let (), ns, _ =
    timed t.tr
      (Fmt.str "parallel.shard.handle.2.%d" s)
      (fun () -> Array.iter (S.handle w) streams.(s))
  in
  (w, ns)

let shard_layers t events =
  let router = Router.create ~shards:1 () in
  let xchg = S.create_xchg ~shards:1 () in
  let w = worker t ~router ~xchg 0 in
  let (), ns, _ =
    timed t.tr "parallel.shard.handle.1" (fun () ->
        Array.iter (S.handle w) events)
  in
  check_merged t "parallel.shard (1 shard) fingerprint" [| w |];
  Stats.add t.s "shard1.ns" ns;
  let router = Router.create ~shards:2 () in
  let cross, streams = route_streams router t.spec.R.route events in
  Stats.add t.s "router.cross" (float_of_int cross);
  let journals =
    match t.journals with
    | Some j -> Some j
    | None when t.two_domains ->
        let j = journal_pass t router streams in
        t.journals <- Some j;
        Some j
    | None -> None
  in
  match journals with
  | None -> ()
  | Some journals ->
      let w0, ns0 = isolated t ~router ~journals streams 0 in
      let w1, ns1 = isolated t ~router ~journals streams 1 in
      check_merged t "parallel.shard (2 shards, isolated) fingerprint"
        [| w0; w1 |];
      Stats.add t.s "shard2.ns" (Float.max ns0 ns1);
      let msgs =
        Array.fold_left
          (Array.fold_left (fun acc j -> acc + List.length j))
          0 journals
      in
      Stats.add t.s "shard2.msgs" (float_of_int msgs)

let stream_layers t =
  let events = record t in
  expect t "recorded events" ~got:(Array.length events)
    ~want:(R.events t.reference);
  Gc.full_major ();
  engine_layer t events;
  codec_layers t events;
  desc_counts t events;
  shard_layers t events

let round t =
  Stats.add t.s "calib" (Calib.run ());
  vm_layers t;
  runtime_layers t;
  stream_layers t;
  Gc.compact ()

(* -- the per-layer table ----------------------------------------------- *)

(* Every per-layer metric, as (name, unit, value).  Times are medians
   over the traced rounds, scaled by the traced phase's median
   calibration (see {!Calib}); counts and words are plain medians.
   [untraced] holds the samples of the untraced round-robin, whose
   wall times are already scaled round by round. *)
let metrics t ~untraced =
  let scale = Calib.scale (Stats.median (Stats.values t.s "calib")) in
  let count name = Stats.median (Stats.values t.s name) in
  let time name = count name *. scale in
  let e2e name = Stats.median (Stats.values untraced name) in
  let instrs = float_of_int (R.events t.reference) in
  let per_instr x = x /. instrs in
  let ms ns = ns /. 1e6 in
  (* the no-op-tool run is the VM plus the event layer *)
  let vm_ns = time "vm.ns" and event_ns = time "vm.event.ns" in
  let engine_ns = time "engine.ns" in
  let encode_ns = time "encode.ns" and decode_ns = time "decode.ns" in
  let view_ns = time "decode_engine.ns" -. decode_ns in
  let inline_ms = e2e "inline_ms" in
  let compact, explicit, escape, lane_words =
    Option.value t.desc ~default:(0, 0, 0, 0)
  in
  let share c = float_of_int c /. instrs in
  let residual parts whole = 1.0 -. (ms parts /. whole) in
  let helper =
    if t.two_domains then
      let helper_ms = e2e "helper_ms" in
      let app_ms = e2e "helper_app_ms" in
      [
        ( "parallel.ring.producer_stalls",
          "count",
          e2e "ring.producer_stalls" );
        ( "parallel.ring.consumer_waits",
          "count",
          e2e "ring.consumer_waits" );
        ("parallel.ring.batches", "count", e2e "ring.batches");
        ("parallel.ring.join_tail_ms", "ms", helper_ms -. app_ms);
        ( "parallel.livefilter.filtered_share",
          "share",
          count "livefilter.filtered" /. instrs );
        ( "parallel.livefilter.helper_ms",
          "ms",
          ms (time "livefilter.helper_ns") );
        ( "parallel.shard.handle_ns_per_event_2",
          "ns",
          per_instr (time "shard2.ns") );
        ( "parallel.shard.exchange_msgs_per_event_2",
          "msg/event",
          per_instr (count "shard2.msgs") );
        ( "parallel.shard.overhead_ms",
          "ms",
          e2e "sharded1_ms" -. helper_ms );
        ("obs.helper_ms", "ms", ms (time "obs.helper_ns"));
        ( "attr.helper_app_residual_share",
          "share",
          residual (event_ns +. encode_ns) app_ms );
        ( "attr.helper_residual_share",
          "share",
          residual (decode_ns +. view_ns) helper_ms );
        ("env.helper_over_inline", "ratio", helper_ms /. inline_ms);
      ]
    else []
  in
  [
    ("vm.ns_per_instr", "ns", per_instr vm_ns);
    ("vm.words_per_instr", "words", per_instr (count "vm.words"));
    ("vm.instrs", "count", instrs);
    ("vm.event.ns_per_instr", "ns", per_instr (event_ns -. vm_ns));
    ( "vm.event.words_per_instr",
      "words",
      per_instr (count "vm.event.words" -. count "vm.words") );
    ("core.engine.ns_per_event", "ns", per_instr engine_ns);
    ("core.engine.view_ns_per_event", "ns", per_instr view_ns);
    ("core.engine.words_per_event", "words", per_instr (count "engine.words"));
    ( "core.engine.tainted_locations",
      "count",
      float_of_int (R.tainted_locations t.reference) );
    ("core.engine.sink_hits", "count", float_of_int (R.sink_hits t.reference));
    ("core.shadow.words", "words", float_of_int (R.shadow_words t.reference));
    ("parallel.codec.encode_ns_per_event", "ns", per_instr encode_ns);
    ( "parallel.codec.encode_words_per_event",
      "words",
      per_instr (count "encode.words") );
    ("parallel.codec.decode_ns_per_event", "ns", per_instr decode_ns);
    ( "parallel.codec.lane_words_per_event",
      "words",
      float_of_int lane_words /. instrs );
    ("parallel.codec.compact_share", "share", share compact);
    ("parallel.codec.explicit_share", "share", share explicit);
    ("parallel.codec.escape_share", "share", share escape);
    ( "parallel.shard.handle_ns_per_event_1",
      "ns",
      per_instr (time "shard1.ns") );
    ("parallel.router.cross_share_2", "share", count "router.cross" /. instrs);
    ("obs.inline_ms", "ms", ms (time "obs.inline_ns"));
    ("gc.minor_collections", "count", e2e "gc.minor_collections");
    ("gc.major_collections", "count", e2e "gc.major_collections");
    ("gc.top_heap_mb", "MB", e2e "gc.top_heap_mb");
    ( "attr.inline_residual_share",
      "share",
      residual (event_ns +. engine_ns) inline_ms );
    ( "trace.overhead_share",
      "share",
      (ms (time "inline.traced_ns") /. inline_ms) -. 1.0 );
    ("env.calib_ms", "ms", e2e "env.calib_ms");
    ("env.inline_over_native", "ratio", inline_ms /. e2e "native_ms");
  ]
  @ helper
