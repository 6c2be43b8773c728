(* The allocation claim, checked: the interpreter fills one reused
   event view per instruction, and inline Bool DIFT consumes that view,
   so neither allocates per step, and a returning call hands its
   register file to the next one.  [Gc.minor_words] is domain-local on
   OCaml 5, so the figure is this domain's alone.  What is left over a
   run is setup (engine, shadow pages, machine) and the logs the
   machine must keep (schedule switches, output), which a long run
   amortises below one word per instruction. *)

open Dift_vm
open Dift_core
open Dift_workloads
module P = Dift_parallel.Parallel

(* sizes giving at least 100 k instructions each *)
let kernels = [ (Spec_like.matmul, 20); (Spec_like.poly, 1500) ]

let words_per_instr f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let instrs = f () in
  let words = Gc.minor_words () -. w0 in
  (instrs, words /. float_of_int instrs)

let check_bound what (w : Workload.t) (instrs, per_instr) =
  let name = Fmt.str "%s %s" what w.Workload.name in
  Alcotest.(check bool)
    (Fmt.str "%s: %d instrs >= 100k" name instrs)
    true (instrs >= 100_000);
  Alcotest.(check bool)
    (Fmt.str "%s: %.3f words/instr <= 1" name per_instr)
    true (per_instr <= 1.0)

(* a call-dense recursive kernel: every call needs a register file *)
let vm_kernels = kernels @ [ (Spec_like.qsort, 1000) ]

let test_bare_vm () =
  List.iter
    (fun ((w : Workload.t), size) ->
      let input = w.Workload.input ~size ~seed:1 in
      check_bound "bare VM" w
        (words_per_instr (fun () ->
             let m = Machine.create w.Workload.program ~input in
             ignore (Machine.run m);
             Machine.steps m)))
    vm_kernels

let test_inline_dift () =
  List.iter
    (fun ((w : Workload.t), size) ->
      let input = w.Workload.input ~size ~seed:1 in
      check_bound "inline DIFT" w
        (words_per_instr (fun () ->
             let r =
               P.run_inline ~policy:Policy.data_only w.Workload.program ~input
             in
             r.P.i_result.P.events)))
    kernels

(* Implicit flow: under [Policy.full] every event also consults the
   thread's control regions, which live in reused per-frame arrays,
   so a tainted branch, a region closing, a call and a return
   allocate nothing once the frame stack is warm. *)
let implicit_kernels =
  [ (Spec_like.qsort, 1000); (Spec_like.poly, 1500); (Spec_like.matmul, 20) ]

let test_implicit_dift () =
  List.iter
    (fun ((w : Workload.t), size) ->
      let input = w.Workload.input ~size ~seed:1 in
      check_bound "implicit-flow DIFT" w
        (words_per_instr (fun () ->
             let r =
               P.run_inline ~policy:Policy.full w.Workload.program ~input
             in
             r.P.i_result.P.events)))
    implicit_kernels

(* The producer of a two-domain run: the application domain runs the
   machine and encodes every view into the channel's pooled batches,
   so apart from setup (machine, engine, the batch pool, the helper
   spawn) it allocates nothing per instruction or per batch.  The
   helper's allocations land on its own domain and are not counted.
   Nothing on this side depends on how the two domains interleave, so
   two identical runs allocate the same to within 1%. *)
let producer_kernels = [ (Spec_like.matmul, 32); (Spec_like.poly, 4500) ]

let producer_words (w : Workload.t) size =
  let input = w.Workload.input ~size ~seed:1 in
  words_per_instr (fun () ->
      match P.run_result ~policy:Policy.data_only w.Workload.program ~input with
      | Ok r -> r.P.result.P.events
      | Error e -> Alcotest.failf "%s: %a" w.Workload.name P.pp_error e)

let test_producer () =
  List.iter
    (fun ((w : Workload.t), size) ->
      let ((instrs, a) as first) = producer_words w size in
      let name = Fmt.str "two-domain producer %s" w.Workload.name in
      Alcotest.(check bool)
        (Fmt.str "%s: %d instrs >= 300k" name instrs)
        true (instrs >= 300_000);
      check_bound "two-domain producer" w first;
      let _, b = producer_words w size in
      Alcotest.(check bool)
        (Fmt.str "%s: %.4f vs %.4f words/instr within 1%%" name a b)
        true
        (Float.abs (a -. b) <= 0.01 *. Float.max a b))
    producer_kernels

let suite =
  [
    Alcotest.test_case "bare VM allocates <= 1 word/instr" `Quick test_bare_vm;
    Alcotest.test_case "inline DIFT allocates <= 1 word/instr" `Quick
      test_inline_dift;
    Alcotest.test_case "two-domain producer allocates <= 1 word/instr" `Quick
      test_producer;
    Alcotest.test_case "implicit-flow DIFT allocates <= 1 word/instr" `Quick
      test_implicit_dift;
  ]
