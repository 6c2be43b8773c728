(* The VM's observable behaviour, pinned by digest.

   Every Spec_like and Splash_like kernel at test size, one faulting
   Buggy kernel and a machine whose step cost is overridden run under
   six configurations: the default one, schedule replay, a flipped
   branch, a replaced value, an overridden input word and bounds
   checking.  Each run contributes every field of every exec record a
   [Tool.make ~on_exec] tool sees, plus the machine's cycles, output,
   schedule and input logs and the outcome.  The execution-reduction
   pipeline (whose reduced replay overrides the step cost) adds its
   report.  The expected digests were taken from the boxed-record
   interpreter: a change to how the VM hands events to tools must
   leave all of them unchanged. *)

open Dift_isa
open Dift_vm
open Dift_workloads
open Dift_replay

let locs b l =
  List.iteri (fun i x -> Printf.bprintf b (if i = 0 then "%d" else ",%d") x) l

let exec_line b (e : Event.exec) =
  Printf.bprintf b "%d t%d %s:%d %s r[" e.Event.step e.Event.tid
    e.Event.func.Func.name e.Event.pc
    (Fmt.str "%a" Instr.pp e.Event.instr);
  locs b e.Event.reads;
  Buffer.add_string b "] w[";
  locs b e.Event.writes;
  Printf.bprintf b "] a%d n%d i%d v%d\n" e.Event.addr e.Event.next_pc
    e.Event.input_index e.Event.value

let machine_lines b m outcome =
  Printf.bprintf b "cycles %d steps %d\n" (Machine.cycles m) (Machine.steps m);
  List.iter (fun (s, v) -> Printf.bprintf b "out %d %d\n" s v) (Machine.output m);
  List.iter
    (fun (s, t) -> Printf.bprintf b "sched %d %d\n" s t)
    (Machine.schedule_log m);
  List.iter
    (fun (s, i, v) -> Printf.bprintf b "in %d %d %d\n" s i v)
    (Machine.input_log m);
  Printf.bprintf b "outcome %s\n" (Fmt.str "%a" Event.pp_outcome outcome)

(* One run into [b]; returns the machine and the exec stream. *)
let run_into ?step_cost b config program input =
  let m = Machine.create ~config program ~input in
  Option.iter (Machine.set_step_cost m) step_cost;
  let rev = ref [] in
  Machine.attach m
    (Tool.make ~on_exec:(fun e -> rev := e :: !rev) "digest-recorder");
  let outcome = Machine.run m in
  let execs = List.rev !rev in
  List.iter (exec_line b) execs;
  machine_lines b m outcome;
  (m, execs)

(* A bound generous enough for every perturbed run here to finish on
   its own, yet small enough that one caught in a loop stays cheap. *)
let bounded steps = { Machine.default_config with max_steps = (4 * steps) + 1000 }

(* The digest of one program under the six configurations; the
   perturbations are picked from the default run's stream. *)
let digest ?step_cost program input =
  let b = Buffer.create 4096 in
  let section name = Printf.bprintf b "== %s\n" name in
  section "default";
  let m0, execs = run_into ?step_cost b Machine.default_config program input in
  let base = bounded (Machine.steps m0) in
  let nth_of p =
    match List.filter p execs with
    | [] -> None
    | l -> Some (List.nth l (List.length l / 2))
  in
  let run name config =
    section name;
    ignore (run_into ?step_cost b config program input)
  in
  run "replay" { base with schedule = Some (Machine.schedule_log m0) };
  (match nth_of Event.is_branch with
  | Some e -> run "flip" { base with flip_steps = [ e.Event.step ] }
  | None -> ());
  (match nth_of (fun e -> e.Event.writes <> [] && e.Event.input_index < 0) with
  | Some e ->
      run "value"
        { base with value_replacements = [ (e.Event.step, e.Event.value + 1) ] }
  | None -> ());
  (let n = Array.length input in
   if n > 1 then
     run "input" { base with input_override = [ (n - 1, input.(n - 1) + 3) ] });
  run "bounds" { base with check_bounds = true };
  Digest.to_hex (Digest.string (Buffer.contents b))

let workload (w : Workload.t) ~size =
  (w.Workload.name, fun () ->
    digest w.Workload.program (w.Workload.input ~size ~seed:1))

let cases =
  List.map (workload ~size:10) Spec_like.all
  @ [
      ( "stencil",
        fun () ->
          digest (Splash_like.stencil ~threads:2 ())
            (Splash_like.stencil_input ~size:16 ~seed:1) );
      ( "stencil_racy",
        fun () ->
          digest (Splash_like.stencil_racy ~threads:2 ())
            (Splash_like.stencil_input ~size:16 ~seed:1) );
      ( "bank",
        fun () ->
          digest (Splash_like.bank ~threads:2 ())
            (Splash_like.bank_input ~size:20 ~seed:0) );
      ( "bank_racy",
        fun () ->
          digest (Splash_like.bank_racy ~threads:2 ())
            (Splash_like.bank_input ~size:20 ~seed:0) );
      ( "bank_racy_checked",
        fun () ->
          digest (Splash_like.bank_racy_checked ~threads:2 ())
            (Splash_like.bank_input ~size:20 ~seed:0) );
      ( "flag_pipeline",
        fun () ->
          digest (Splash_like.flag_pipeline ())
            (Splash_like.flag_input ~size:8 ~seed:0) );
      ( "spin_barrier",
        fun () ->
          digest (Splash_like.spin_barrier ~threads:2 ~phases:2 ()) [||] );
      ("lock_order_deadlock", fun () ->
        digest (Splash_like.lock_order_deadlock ()) [||]);
      ( "div_crash",
        fun () ->
          let c = Buggy.div_crash in
          digest c.Buggy.program c.Buggy.failing_input );
      ( "step_cost",
        fun () ->
          let w = Spec_like.qsort in
          (* a cost that depends on every kind of field the record has *)
          let step_cost (e : Event.exec) =
            (if Event.is_branch e then 3 else 1)
            + List.length e.Event.reads + e.Event.pc land 1
            + if e.Event.addr >= 0 then 2 else 0
          in
          digest ~step_cost w.Workload.program (w.Workload.input ~size:10 ~seed:1)
      );
      ( "rerun",
        fun () ->
          let p = Server_sim.program () in
          let batch = Server_sim.generate ~requests:30 ~seed:11 ~faulty:true () in
          let config = { Machine.default_config with seed = 11 } in
          let r =
            Rerun.run ~config ~checkpoint_every:5_000 p
              ~input:batch.Server_sim.input
          in
          Digest.to_hex
            (Digest.string
               (Fmt.str "%a|%d %d %d %d %d %d"
                  Rerun.pp_report r r.Rerun.total_steps r.Rerun.replayed_steps
                  r.Rerun.checkpoints_taken r.Rerun.logged_words
                  r.Rerun.fault_slice_sites r.Rerun.relevant_requests)) );
    ]

let expected =
  [
    ("matmul", "b2048eedc30cff85775096682d8cfea0");
    ("qsort", "d16aacc094e0bd7044dc734019f9853b");
    ("rle", "82cad8a7f1b76ba2773ef1ff32e35de9");
    ("search", "db102b9326b94ab0b0512e7d1d0403b6");
    ("hash", "c09d7c0f36b7bde7e8f2d4b045e23e13");
    ("crc", "fd091af96184a9aadd182808498573a3");
    ("sieve", "a3a76cf21d8197fd6dcc8b18273a6d71");
    ("poly", "33b0f27d14c6f17960564aea112bc9da");
    ("butterfly", "edc3cfa5e24a597ba9284f10dbb20f36");
    ("bfs", "cad95304d0611e6c1c7d4c31e8fdc69a");
    ("treesum", "da8428a7ad16fd0892ebb4e91e7bc117");
    ("feistel", "0e8a2c65e5c08942770ab78a70d9a860");
    ("stencil", "50b4c3b89f72599591486d0938ceb84d");
    ("stencil_racy", "090f7ac0d34f2e59656d809c2f31ae1e");
    ("bank", "ddf30ecdfa607a42a604a9dc46c9ca46");
    ("bank_racy", "d64a9b66ef23fd84c7cadbaae113c1f3");
    ("bank_racy_checked", "29f08985a0add904baccf4471658d8e3");
    ("flag_pipeline", "3a746cecbec9172c7dfaafcce44653e5");
    ("spin_barrier", "5a97746e0dac0ede63af7af129ea8a5c");
    ("lock_order_deadlock", "293e0381f2a3fa5fbbc0be3600f747ea");
    ("div_crash", "4d71b6859c0858817fdc11055a844ba1");
    ("step_cost", "5d30cb92a352d7924ec592539a9ea97b");
    ("rerun", "d9a9f8b79786fa241c940881d2e5f400");
  ]

let test_digests () =
  List.iter
    (fun (name, f) ->
      Alcotest.(check (option string))
        (name ^ " digest") (List.assoc_opt name expected) (Some (f ())))
    cases

(* A record kept from [on_exec] must not change as the machine runs on:
   its loc lists and fields belong to the tool, not to the VM. *)
let test_kept_exec_stable () =
  let w = Spec_like.matmul in
  let m = Machine.create w.Workload.program ~input:(w.Workload.input ~size:6 ~seed:1) in
  let kept = ref [] in
  Machine.attach m
    (Tool.make
       ~on_exec:(fun e ->
         if e.Event.step mod 97 = 0 then begin
           let b = Buffer.create 64 in
           exec_line b e;
           kept := (e, Buffer.contents b) :: !kept
         end)
       "keeper");
  ignore (Machine.run m);
  Alcotest.(check bool) "kept some records" true (List.length !kept > 10);
  List.iter
    (fun (e, line) ->
      let b = Buffer.create 64 in
      exec_line b e;
      Alcotest.(check string) "kept record unchanged" line (Buffer.contents b))
    !kept

let suite =
  [
    Alcotest.test_case "exec stream and machine logs match the digests" `Quick
      test_digests;
    Alcotest.test_case "an exec kept from on_exec is stable" `Quick
      test_kept_exec_stable;
  ]
