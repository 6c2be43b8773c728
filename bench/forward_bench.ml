(* The forwarding-plane sweep behind BENCH_5.json: what the coded
   channel ({!Dift_parallel.Channel} over {!Dift_parallel.Codec}
   batches) buys over boxed forwarding on the helper's side.  The
   runtimes have only the coded channel; the boxed leg is a bench-local
   reference: [Event.exec] array batches over one {!Dift_parallel.Spsc}
   ring, each record refilled into one reused view for the engine.

   Per (kernel, wire) the kernel's recorded event stream makes one
   trip through a ring sized to hold the whole stream, so neither side
   ever blocks:

   - feed: every event encoded (coded) or copied into a batch array
     (boxed) — the producer-side cost of the wire;
   - drain: every event decoded into the reused scratch view and run
     through a fresh Bool-taint engine — the helper-drain work the
     runtime's critical path is made of.

   Both legs are timed separately, best of [reps].  Aggregate
   helper-drain throughput = events / drain time; [drain_ratio] is
   coded over boxed and is what [check_regression] gates on (>= 1.3x
   on >= 2 kernels).  Each trip's final engine stats are compared
   across wires, so a trip that decoded the stream wrong fails loudly
   rather than producing a fast wrong number.

   The sweep also records the producer-side liveness filter's
   effectiveness per kernel (fraction of the stream dropped on a real
   two-domain run with [~forward_filter:true]) — the traffic the
   coded plane never even has to encode. *)

open Dift_vm
open Dift_core
open Dift_workloads
module Channel = Dift_parallel.Channel
module Spsc = Dift_parallel.Spsc
module Parallel = Dift_parallel.Parallel
module Bool_engine = Engine.Make (Taint.Bool)

let now_ns = Dift_obs.Clock.now_ns

(* Run the kernel once, recording every executed event (same collector
   as engine_bench / shard_bench). *)
let record_events (w : Workload.t) ~size ~seed =
  let input = w.Workload.input ~size ~seed in
  let acc = ref [] in
  let m = Machine.create w.Workload.program ~input in
  Machine.attach m
    (Tool.make ~on_exec:(fun e -> acc := e :: !acc) "bench-collector");
  ignore (Machine.run m);
  Array.of_list (List.rev !acc)

(* A wire as the two timed legs of a trip over a fresh channel. *)
type wire = {
  feed : Event.exec array -> unit;  (* enqueue the stream, then close *)
  drain : (Event.view -> unit) -> unit;  (* every event, in order *)
}

let coded ~batch_size ~table events =
  let ch =
    Channel.create
      ~queue_capacity:((Array.length events / batch_size) + 2)
      ~batch_size ~table ()
  in
  {
    feed =
      (fun events ->
        Array.iter (Channel.add ch) events;
        Channel.close ch);
    drain = (fun f -> Channel.drain ch ~f);
  }

let boxed ~batch_size ~table:_ events =
  let ring = Spsc.create ~capacity:((Array.length events / batch_size) + 2) () in
  {
    feed =
      (fun events ->
        let n = Array.length events in
        let i = ref 0 in
        while !i < n do
          let len = min batch_size (n - !i) in
          Spsc.push ring (Array.sub events !i len);
          i := !i + len
        done;
        Spsc.close ring);
    drain =
      (fun f ->
        let e0 = events.(0) in
        let v = Event.view_create ~func:e0.Event.func ~instr:e0.Event.instr in
        let rec loop () =
          match Spsc.pop ring with
          | None -> ()
          | Some batch ->
              Array.iter
                (fun e ->
                  Event.view_fill v e;
                  f v)
                batch;
              loop ()
        in
        loop ());
  }

(* One trip: feed the whole pre-recorded stream, close, then drain
   into a fresh engine.  Returns (feed_ns, drain_ns, stats). *)
let trip ~wire ~batch_size ~table program events =
  let w = wire ~batch_size ~table events in
  let eng = Bool_engine.create program in
  (* the trips are short: collect pending garbage now so no major
     slice lands inside a timed region *)
  Gc.full_major ();
  let t0 = now_ns () in
  w.feed events;
  let t1 = now_ns () in
  w.drain (Bool_engine.process_view eng);
  let t2 = now_ns () in
  (t1 - t0, t2 - t1, Bool_engine.stats eng)

type leg = { feed_ns : int; drain_ns : int }

type row = {
  kernel : string;
  events : int;
  boxed : leg;
  coded : leg;
  filtered_events : int;  (* liveness filter, real two-domain run *)
}

let best_trip ~reps ~wire ~batch_size ~table program events =
  let rec go best_feed best_drain stats n =
    if n = 0 then ({ feed_ns = best_feed; drain_ns = best_drain }, stats)
    else begin
      let f, d, s = trip ~wire ~batch_size ~table program events in
      go (min best_feed f) (min best_drain d) (Some s) (n - 1)
    end
  in
  go max_int max_int None (max 1 reps)

let kernels = [ "crc"; "qsort"; "matmul"; "treesum"; "feistel" ]

let run ?(size = 60) ?(seed = 3) ?(reps = 5) ?(batch_size = 64) () =
  List.map
    (fun kname ->
      let w = Spec_like.by_name kname in
      let program = w.Workload.program in
      (* same stream scaling as shard_bench: long enough that a trip
         dwarfs the clock granularity *)
      let ksize =
        match kname with
        | "matmul" -> size
        | "treesum" -> 16 * size
        | _ -> 6 * size
      in
      let events = record_events w ~size:ksize ~seed in
      let table = lazy (Site.of_program program) in
      let boxed, bstats =
        best_trip ~reps ~wire:boxed ~batch_size ~table program events
      in
      let coded, cstats =
        best_trip ~reps ~wire:coded ~batch_size ~table program events
      in
      (match (bstats, cstats) with
      | Some b, Some c when b <> c ->
          Fmt.failwith "forward_bench: %s decoded differently per wire" kname
      | _ -> ());
      let filtered_events =
        let input = w.Workload.input ~size:ksize ~seed in
        (Parallel.run ~forward_filter:true program ~input)
          .Parallel.filtered_events
      in
      {
        kernel = kname;
        events = Array.length events;
        boxed;
        coded;
        filtered_events;
      })
    kernels

let ms ns = float_of_int ns /. 1e6

(* Events per second through the helper-side drain. *)
let drain_rate ~events (l : leg) =
  float_of_int events *. 1e9 /. float_of_int (max 1 l.drain_ns)

(* Coded helper-drain throughput over boxed — the gated headline. *)
let drain_ratio r =
  drain_rate ~events:r.events r.coded /. drain_rate ~events:r.events r.boxed

let filtered_fraction r =
  float_of_int r.filtered_events /. float_of_int (max 1 r.events)

let json rows =
  let open Dift_obs.Json in
  let leg_json r (l : leg) =
    obj
      [
        ("feed_ms", Float (ms l.feed_ns));
        ("drain_ms", Float (ms l.drain_ns));
        ("drain_ev_per_s", Float (drain_rate ~events:r.events l));
      ]
  in
  obj
    [
      ("bench", String "forwarding-plane");
      ( "method",
        String
          "per (kernel, wire): the recorded stream makes one trip \
           through a channel sized to hold it whole (no blocking); \
           feed and drain timed separately, best of reps; drain runs a \
           fresh Bool-taint engine over the decoded views; \
           coded_vs_boxed = coded drain rate / boxed drain rate" );
      ("batch_size", Int 64);
      ( "results",
        List
          (List.map
             (fun r ->
               obj
                 [
                   ("kernel", String r.kernel);
                   ("events", Int r.events);
                   ("boxed", leg_json r r.boxed);
                   ("coded", leg_json r r.coded);
                   ("coded_vs_boxed", Float (drain_ratio r));
                   ("filtered_events", Int r.filtered_events);
                   ("filtered_fraction", Float (filtered_fraction r));
                 ])
             rows) );
    ]

let pp_rows ppf rows =
  Fmt.pf ppf "%-8s %8s %10s %10s %8s %10s@." "kernel" "events" "boxed ms"
    "coded ms" "ratio" "filtered";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-8s %8d %10.3f %10.3f %7.2fx %9.1f%%@." r.kernel r.events
        (ms r.boxed.drain_ns) (ms r.coded.drain_ns) (drain_ratio r)
        (100.0 *. filtered_fraction r))
    rows
