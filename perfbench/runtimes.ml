(* Every call the benchmark makes into [Dift_parallel.Parallel] sits in
   this file, so a change to the runtime's entry points is absorbed
   here and nowhere else in the benchmark.

   Each call is timed from outside, around the public function, so the
   wall time includes whatever the runtime does before its own clock
   starts (engine and channel creation, the helper spawn).  The heap
   is collected first, untimed, so every call starts from the same
   small heap a one-shot user starts from. *)

module P = Dift_parallel.Parallel

type kind = Native | Inline | Helper | Sharded1

let kind_name = function
  | Native -> "native"
  | Inline -> "inline"
  | Helper -> "helper"
  | Sharded1 -> "sharded1"

(* What a run of one workload needs to make a call. *)
type spec = {
  program : Dift_isa.Program.t;
  input : int array;
  policy : Dift_core.Policy.t;
  route : Dift_parallel.Shard_engine.route;
      (* [`Request_reply] rejects control-flow policies *)
}

(* Channel figures of a helper run. *)
type ring = {
  producer_stalls : int;
  consumer_waits : int;
  batches : int;
  filtered_events : int;
}

type run = {
  tracked : (P.result, string) result option;
      (* [None] for the native run; [Error] when the call raised,
         returned [Error] or came back degraded *)
  wall_ns : int;
  app_ns : int;  (* application-domain time; [wall_ns] unless helper *)
  minor_words : float;  (* allocated by the calling domain *)
  minor_gcs : int;
  major_gcs : int;
  ring : ring option;
}

let now_ns = Dift_obs.Clock.now_ns

let degraded_msg pp d = Error (Fmt.str "degraded: %a" pp d)

(* [filter] turns on the producer-side liveness filter and [observe]
   attaches a metrics registry and an execution trace (both helper
   runs only for [filter]). *)
let call ?(filter = false) ?(observe = false) spec kind =
  let { program; input; policy; route } = spec in
  let obs = if observe then Some (Dift_obs.Registry.create ()) else None in
  let trace = if observe then Some (Dift_obs.Trace.create ()) else None in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let tracked, app_ns, ring =
    match kind with
    | Native ->
        ignore (P.native_wall_ns program ~input);
        (None, None, None)
    | Inline -> (
        match P.run_inline ?obs ?trace ~policy program ~input with
        | r -> (Some (Ok r.P.i_result), None, None)
        | exception e -> (Some (Error (Printexc.to_string e)), None, None))
    | Helper -> (
        match
          P.run_result ?obs ?trace ~forward_filter:filter ~policy program
            ~input
        with
        | Ok { P.degraded = Some d; _ } ->
            (Some (degraded_msg P.pp_degraded d), None, None)
        | Ok r ->
            ( Some (Ok r.P.result),
              Some r.P.main_wall_ns,
              Some
                {
                  producer_stalls = r.P.producer_stalls;
                  consumer_waits = r.P.consumer_waits;
                  batches = r.P.batches;
                  filtered_events = r.P.filtered_events;
                } )
        | Error e -> (Some (Error (Fmt.str "%a" P.pp_error e)), None, None)
        | exception e -> (Some (Error (Printexc.to_string e)), None, None))
    | Sharded1 -> (
        match
          P.run_sharded_result ?obs ?trace ~route ~policy ~shards:1 program
            ~input
        with
        | Ok { P.s_degraded = Some d; _ } ->
            (Some (degraded_msg P.pp_degraded d), None, None)
        | Ok r -> (Some (Ok r.P.s_result), None, None)
        | Error e -> (Some (Error (Fmt.str "%a" P.pp_error e)), None, None)
        | exception e -> (Some (Error (Printexc.to_string e)), None, None))
  in
  let wall_ns = now_ns () - t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  {
    tracked;
    wall_ns;
    app_ns = Option.value app_ns ~default:wall_ns;
    minor_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    ring;
  }

(* The functional outcome a tracked run must reproduce. *)
type result = P.result

let equal_result (a : result) (b : result) = a = b
let outcome (r : result) = r.P.outcome
let events (r : result) = r.P.events
let sink_hits (r : result) = r.P.sink_hits
let tainted_locations (r : result) = r.P.tainted_locations
let shadow_words (r : result) = r.P.shadow_words
let fingerprint (r : result) = r.P.taint_fingerprint
let pp_result = P.pp_result

(* A copy of [r] that no correct run reproduces; the self-test feeds it
   in as the reference to prove that mismatches are counted. *)
let corrupt (r : result) = { r with P.sink_hits = r.P.sink_hits + 1 }
