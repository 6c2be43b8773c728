(* The tracked-run benchmark: the wall time of a whole tracked run
   under every runtime a user can choose, on one seeded workload, in
   one process.  See README.md in this directory for the workloads,
   the metrics and how they map onto each other.

   The load is a closed-loop batch: one tracked run at a time from
   this process.  No call runs more domains than two (the helper and
   one-shard runtimes each add one), and the helper runtimes are
   skipped outright when fewer than two CPUs are available.

   A run has three phases:
   - set-up, repeated [setup_reps] times: generate the input, run the
     native VM once for the reference outcome, and make the first
     (cold) call of each runtime; [setup_s] is the median;
   - the timed phase: the runtimes called round-robin, together with
     the calibration loop of {!Calib}, until the time budget is spent,
     so host drift hits every runtime equally; each wall time is
     reported as its median, scaled by the calibration of its round;
   - with [--trace 1], the budget is split: the first half runs the
     timed phase, the second half runs {!Layers} rounds, and the output
     is the per-layer table instead of the end-to-end metrics.

   Every tracked run is checked against the inline reference result
   and the native outcome; a run that raises, returns [Error], comes
   back degraded or differs is a failed operation. *)

open Dift_core
open Dift_workloads
module R = Runtimes

type workload = {
  name : string;
  kernel : Workload.t;
  input : size:int -> seed:int -> int array;
  policy : Policy.t;
  policy_name : string;
  size : int;
  route : Dift_parallel.Shard_engine.route;
}

(* The quicksort input keeps one comparison structure for every seed:
   a fixed draw of the kernel's own generator sets the order of the
   words (ties included), and the seed draws the strictly increasing
   values that fill that order.  With a fresh order per seed, the
   partition tree, and with it the tracking work, differs by up to a
   quarter between seeds, which would hide any change to the code. *)
let qsort_input ~size ~seed =
  let shape = Spec_like.qsort.Workload.input ~size ~seed:0 in
  let words = Array.sub shape 1 (Array.length shape - 1) in
  let ranks = List.sort_uniq compare (Array.to_list words) in
  let rng = Random.State.make [| seed |] in
  let value = Hashtbl.create (List.length ranks) in
  ignore
    (List.fold_left
       (fun acc w ->
         let v = acc + 1 + Random.State.int rng 8 in
         Hashtbl.replace value w v;
         v)
       0 ranks);
  Array.append [| shape.(0) |] (Array.map (Hashtbl.find value) words)

let workloads =
  [
    {
      name = "matmul-dense";
      kernel = Spec_like.matmul;
      input = Spec_like.matmul.Workload.input;
      policy = Policy.data_only;
      policy_name = "data_only";
      size = 40;
      route = `Request_reply;
    };
    {
      name = "poly-sparse";
      kernel = Spec_like.poly;
      input = Spec_like.poly.Workload.input;
      policy = Policy.data_only;
      policy_name = "data_only";
      size = 6000;
      route = `Request_reply;
    };
    {
      name = "qsort-implicit";
      kernel = Spec_like.qsort;
      input = qsort_input;
      policy = Policy.full;
      policy_name = "full";
      size = 1000;
      route = `Broadcast;
    };
  ]

let setup_reps = 3
let min_rounds = 2
let now_ns = Dift_obs.Clock.now_ns

(* -- options ----------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let size = ref 0
let nproc = ref (Domain.recommended_domain_count ())
let wrong_reference = ref false
let out_dir = ref ".perfbench"

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed of the generated input");
    ("--seconds", Arg.Set_float seconds, "S time budget of the timed phase");
    ( "--trace",
      Arg.Set_int trace,
      "0|1 end-to-end metrics (0) or per-layer ones (1)" );
    ("--size", Arg.Set_int size, "N override the workload's input size");
    ("--nproc", Arg.Set_int nproc, "N CPUs available to this process");
    ( "--wrong-reference",
      Arg.Set wrong_reference,
      " check every run against a corrupted reference (self-test)" );
    ( "--out",
      Arg.Set_string out_dir,
      "DIR where the traced run writes its spans" );
  ]

let usage = "e2e.exe --workload NAME --seed N --seconds S --trace 0|1"

(* -- environment -------------------------------------------------------- *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.starts_with ~prefix:"model name" line ->
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> find ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) find

(* -- checking ------------------------------------------------------------ *)

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable drifted : int;
}

let ledger = { attempted = 0; failed = 0; drifted = 0 }

let drift msg =
  ledger.drifted <- ledger.drifted + 1;
  Fmt.pr "DRIFT %s@." msg

let check ~reference ~native label (r : R.run) =
  match r.R.tracked with
  | None -> ()
  | Some t -> (
      ledger.attempted <- ledger.attempted + 1;
      let fail msg =
        ledger.failed <- ledger.failed + 1;
        Fmt.pr "MISMATCH %s: %s@." label msg
      in
      match t with
      | Error msg -> fail msg
      | Ok res ->
          if not (R.equal_result res reference) then
            fail
              (Fmt.str "result [%a] differs from reference [%a]" R.pp_result
                 res R.pp_result reference)
          else if R.outcome res <> native then
            fail "outcome differs from the native run")

(* -- samples --------------------------------------------------------------- *)

let timings = Stats.series ()
let record name v = Stats.add timings name v
let median name = Stats.median (Stats.values timings name)

(* A wall time: recorded as measured under "raw.<name>" and, scaled by
   the calibration loop of the same round, under [name]. *)
let timing ~calib name ms =
  record ("raw." ^ name) ms;
  record name (ms *. Calib.scale calib)

(* A deterministic count: every sample must equal the first. *)
let exact name v =
  (match List.rev (Stats.values timings name) with
  | first :: _ when not (Float.equal first v) ->
      drift (Fmt.str "%s: %.17g, first sample %.17g" name v first)
  | _ -> ());
  record name v

let kinds () =
  if !nproc >= 2 then R.[ Native; Inline; Helper; Sharded1 ]
  else R.[ Native; Inline ]

let ms ns = float_of_int ns /. 1e6

(* One round: the calibration loop, then each runtime once. *)
let round ~spec ~instrs ~check =
  let calib = Calib.run () in
  record "env.calib_ms" calib;
  let timing = timing ~calib in
  List.iter
    (fun kind ->
      let r = R.call spec kind in
      check (R.kind_name kind) r;
      match kind with
      | R.Native -> timing "native_ms" (ms r.R.wall_ns)
      | R.Inline ->
          timing "inline_ms" (ms r.R.wall_ns);
          exact "inline_words_per_instr" (r.R.minor_words /. instrs);
          record "gc.minor_collections" (float_of_int r.R.minor_gcs);
          record "gc.major_collections" (float_of_int r.R.major_gcs)
      | R.Helper -> (
          timing "helper_ms" (ms r.R.wall_ns);
          timing "helper_app_ms" (ms r.R.app_ns);
          record "helper_app_words_per_instr" (r.R.minor_words /. instrs);
          match r.R.ring with
          | Some g ->
              record "ring.producer_stalls" (float_of_int g.R.producer_stalls);
              record "ring.consumer_waits" (float_of_int g.R.consumer_waits);
              record "ring.batches" (float_of_int g.R.batches)
          | None -> ())
      | R.Sharded1 -> timing "sharded1_ms" (ms r.R.wall_ns))
    (kinds ())

(* -- set-up -------------------------------------------------------------- *)

(* One set-up: input generation, the native reference outcome and the
   first call of each runtime.  Returns the spec, the native outcome,
   each runtime's run and the elapsed seconds. *)
let setup w ~size =
  let t0 = now_ns () in
  let input = w.input ~size ~seed:!seed in
  let spec =
    { R.program = w.kernel.Workload.program; input; policy = w.policy;
      route = w.route }
  in
  let native =
    Dift_vm.Machine.run (Dift_vm.Machine.create spec.R.program ~input)
  in
  let runs = List.map (fun k -> (k, R.call spec k)) (kinds ()) in
  let elapsed = float_of_int (now_ns () - t0) /. 1e9 in
  (spec, native, runs, elapsed)

(* -- output ------------------------------------------------------------ *)

(* JSON numbers with every digit the float has. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let print_result ~correct metrics =
  let fields =
    List.filter_map
      (fun (name, unit, v) ->
        if Float.is_finite v then
          Some
            (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
               (json_float v) unit)
        else None)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct ledger.attempted ledger.failed
    (String.concat ", " fields)

let print_table title rows =
  Fmt.pr "@.-- %s --@." title;
  Fmt.pr "%-42s %-11s %14s  %s@." "metric" "unit" "value" "detail";
  List.iter
    (fun (name, unit, v, tail) ->
      Fmt.pr "%-42s %-11s %14.6g  %s@." name unit v tail)
    rows

(* The tail percentile and sample count of a series, and for a wall
   time its median as measured, before scaling. *)
let detail name =
  let xs = Stats.values timings name in
  let tail =
    match Stats.tail xs with
    | Some (p, v) -> Fmt.str "p%d %.6g" p v
    | None -> "p- (under 20 samples)"
  in
  let raw =
    match Stats.values timings ("raw." ^ name) with
    | [] -> ""
    | r -> Fmt.str ", raw median %.6g" (Stats.median r)
  in
  Fmt.str "%s, n=%d%s" tail (List.length xs) raw

let end_to_end () =
  List.filter_map
    (fun (name, unit) ->
      match Stats.values timings name with
      | [] -> None
      | _ -> Some (name, unit, median name))
    [
      ("setup_s", "s");
      ("native_ms", "ms");
      ("inline_ms", "ms");
      ("helper_ms", "ms");
      ("helper_app_ms", "ms");
      ("sharded1_ms", "ms");
      ("inline_words_per_instr", "words/instr");
      ("helper_app_words_per_instr", "words/instr");
    ]

(* -- main ------------------------------------------------------------------ *)

let main () =
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Fmt.epr "e2e: unknown workload %S (one of %s)@." !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    Fmt.epr "e2e: --trace takes 0 or 1@.";
    exit 2
  end;
  let size = if !size > 0 then !size else w.size in
  Fmt.pr "env nproc=%d recommended_domain_count=%d ocaml=%s cpu=%S@." !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (cpu_model ());
  if !nproc < 2 then
    Fmt.pr
      "env fewer than 2 CPUs: the helper and sharded runtimes are skipped, \
       not timed oversubscribed@.";
  Fmt.pr "workload %s: %s, policy %s, size %d, seed %d, %s@." w.name
    w.kernel.Workload.name w.policy_name size !seed
    (if !trace = 1 then "traced" else "untraced");
  (* set-up, [setup_reps] times; the first inline result is the
     reference every later run must reproduce *)
  let reference = ref None in
  let setups =
    List.init setup_reps (fun _ ->
        let spec, native, runs, elapsed = setup w ~size in
        let inline =
          match List.assoc R.Inline runs with
          | { R.tracked = Some (Ok r); _ } -> r
          | { R.tracked = Some (Error msg); _ } ->
              Fmt.epr "e2e: the inline reference run failed: %s@." msg;
              exit 1
          | _ -> assert false
        in
        let ref_result =
          match !reference with
          | Some r -> r
          | None ->
              let r = if !wrong_reference then R.corrupt inline else inline in
              reference := Some r;
              r
        in
        List.iter
          (fun (k, r) ->
            check ~reference:ref_result ~native ("setup " ^ R.kind_name k) r)
          runs;
        record "raw.setup_s" elapsed;
        (spec, native))
  in
  let spec, native = List.hd setups in
  let reference = Option.get !reference in

  let check = check ~reference ~native in
  let budget_ns = int_of_float (!seconds *. 1e9) in
  let phase_ns = if !trace = 1 then budget_ns / 2 else budget_ns in
  let start = now_ns () in
  let rounds = ref 0 in
  while !rounds < min_rounds || now_ns () - start < phase_ns do
    round ~spec ~instrs:(float_of_int (R.events reference)) ~check;
    incr rounds
  done;
  record "gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0);
  (* the set-ups come before any round, so they are scaled by the
     run's median calibration rather than a per-round one *)
  let scale = Calib.scale (median "env.calib_ms") in
  List.iter
    (fun e -> record "setup_s" (e *. scale))
    (Stats.values timings "raw.setup_s");
  let e2e = end_to_end () in
  print_table "end to end (untraced)"
    (List.map (fun (n, u, v) -> (n, u, v, detail n)) e2e);
  let metrics =
    if !trace = 0 then e2e
    else begin
      let tr = Dift_obs.Trace.create ~capacity:1_000_000 () in
      Dift_obs.Trace.name_track tr "bench";
      let layers =
        Layers.create ~spec ~reference ~tr ~two_domains:(!nproc >= 2)
          ~check ~drift
      in
      let start = now_ns () in
      let lrounds = ref 0 in
      while !lrounds < min_rounds || now_ns () - start < phase_ns do
        Layers.round layers;
        incr lrounds
      done;
      let rows = Layers.metrics layers ~untraced:timings in
      print_table
        (Fmt.str "per layer (traced, %d rounds)" !lrounds)
        (List.map (fun (n, u, v) -> (n, u, v, "")) rows);
      (try
         if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
         let file =
           Filename.concat !out_dir
             (Fmt.str "trace-%s-seed%d.json" w.name !seed)
         in
         Dift_obs.Trace.write tr file;
         Fmt.pr "spans written to %s (%d dropped)@." file
           (Dift_obs.Trace.dropped tr)
       with Sys_error msg -> Fmt.pr "spans not written: %s@." msg);
      rows
    end
  in
  Fmt.pr "@.operations: %d attempted, %d failed; %d drifted counts@."
    ledger.attempted ledger.failed ledger.drifted;
  print_result ~correct:(ledger.failed = 0 && ledger.drifted = 0) metrics

let () = main ()
