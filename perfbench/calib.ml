(* The host calibration: a fixed loop that uses nothing from the
   repository, timed in every round next to the runtimes.

   The host is a shared VM whose neighbours slow memory-heavy code by
   up to a third for minutes at a time.  The loop allocates short-lived
   records and lists at about the rate the VM does, so it slows down
   with the host in the same way; an integer loop that stays in L1 does
   not.  Scaling each timing by [ref_ms] over the loop's time in the
   same round turns it into the time the run would take on a host
   where the loop takes [ref_ms].  A change to the code under test moves
   the scaled figure; a change in the host's state mostly does not. *)

(* The loop's time on this host when its neighbours are quiet, in ms
   (2-vCPU Intel Xeon VM, OCaml 5.1.1): scaled figures read close to
   the wall times of a quiet host. *)
let ref_ms = 10.0

type cell = { a : int; b : int list; c : int }

let now_ns = Dift_obs.Clock.now_ns

(* The loop's wall time in ms, after collecting the heap (untimed) as
   the runtimes' calls do. *)
let run () =
  Gc.full_major ();
  let acc = ref 0 in
  let t0 = now_ns () in
  for i = 1 to 2_000_000 do
    let r = Sys.opaque_identity { a = i; b = [ i; i + 1 ]; c = i * 3 } in
    acc := !acc + r.a + List.length r.b
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now_ns () - t0) /. 1e6

(* The factor that scales a time measured next to a loop of [calib_ms]. *)
let scale calib_ms = ref_ms /. calib_ms
