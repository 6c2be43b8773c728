(* Implicit flow, pinned by digest.

   Every Spec_like and Splash_like kernel at a small size runs under
   [Policy.full] (control propagation on) in all three taint domains.
   Each run contributes its sink-hit count, its tainted-location
   count, a digest of the sink stream (kind, taint, step) and a digest
   of the final shadow.  Taints enter the digests in a canonical form
   — an input set as its sorted elements, not as a hash of its tree,
   whose shape depends on the order joins happened in — so any
   representation of the per-frame control regions that computes the
   same joins must reproduce every digest.  The expected values were
   taken from a tracker that kept every region in a list, one entry
   per tainted branch. *)

open Dift_isa
open Dift_vm
open Dift_core
open Dift_workloads

type probe = {
  hits : int;
  tainted : int;
  sinks : string;  (** digest of the sink stream *)
  shadow : string;  (** digest of the final shadow *)
}

module Run (D : sig
  include Taint.DOMAIN

  val canon : t -> string
end) =
struct
  module E = Engine.Make (D)

  let probe program input =
    let m = Machine.create program ~input in
    let eng = E.create ~policy:Policy.full program in
    let b = Buffer.create 4096 in
    E.on_sink_view eng (fun s taint v ->
        Printf.bprintf b "%s %s %d\n" (Engine.sink_to_string s) (D.canon taint)
          v.Event.v_step);
    E.attach eng m;
    let outcome = Machine.run m in
    Printf.bprintf b "outcome %s\n" (Fmt.str "%a" Event.pp_outcome outcome);
    let sinks = Digest.to_hex (Digest.string (Buffer.contents b)) in
    let cells =
      E.Sh.fold (fun l d acc -> (l, d) :: acc) (E.shadow eng) []
      |> List.sort (fun (a, _) (b, _) -> Loc.compare a b)
    in
    let b = Buffer.create 4096 in
    List.iter (fun (l, d) -> Printf.bprintf b "%d %s\n" l (D.canon d)) cells;
    {
      hits = (E.stats eng).Engine.sink_hits;
      tainted = fst (E.shadow_footprint eng);
      sinks;
      shadow = Digest.to_hex (Digest.string (Buffer.contents b));
    }
end

module R_bool = Run (struct
  include Taint.Bool

  let canon d = if d then "1" else "0"
end)

module R_pc = Run (struct
  include Taint.Pc

  let canon = function
    | None -> "-"
    | Some (s : Taint.site) -> Printf.sprintf "%s:%d@%d" s.fname s.pc s.step
end)

module R_set = Run (struct
  include Taint.Input_set

  let canon d =
    String.concat "," (List.map string_of_int (Taint.Int_set.elements d))
end)

let domains =
  [ ("bool", R_bool.probe); ("pc", R_pc.probe); ("set", R_set.probe) ]

(* (name, program, input) at sizes a tracker whose regions grow with
   the input still finishes in seconds *)
let kernels =
  List.map
    (fun (w : Workload.t) ->
      (w.Workload.name, w.Workload.program, w.Workload.input ~size:12 ~seed:1))
    Spec_like.all
  @ [
      ( "stencil",
        Splash_like.stencil ~threads:2 (),
        Splash_like.stencil_input ~size:16 ~seed:1 );
      ( "stencil_racy",
        Splash_like.stencil_racy ~threads:2 (),
        Splash_like.stencil_input ~size:16 ~seed:1 );
      ( "bank",
        Splash_like.bank ~threads:2 (),
        Splash_like.bank_input ~size:20 ~seed:0 );
      ( "bank_racy",
        Splash_like.bank_racy ~threads:2 (),
        Splash_like.bank_input ~size:20 ~seed:0 );
      ( "bank_racy_checked",
        Splash_like.bank_racy_checked ~threads:2 (),
        Splash_like.bank_input ~size:20 ~seed:0 );
      ( "flag_pipeline",
        Splash_like.flag_pipeline (),
        Splash_like.flag_input ~size:8 ~seed:0 );
      ("spin_barrier", Splash_like.spin_barrier ~threads:2 ~phases:2 (), [||]);
      ("lock_order_deadlock", Splash_like.lock_order_deadlock (), [||]);
    ]

(* key -> (sink hits, tainted locations, sink digest, shadow digest) *)
let expected =
  [
    ("matmul/bool", (6509, 445, "ea507b6543d3a644e0d7d25d45704bc8", "2633823086283e575c54e63716b9e279"));
    ("matmul/pc", (6509, 445, "b71850d6b895de23fc6e08d78c4b65ee", "de0f313ff33e8cfdbfb06424dd5eebc9"));
    ("matmul/set", (6509, 445, "8964c33ee991829679884ec501f338b0", "acfe5002f40b16c27128321265b022a5"));
    ("qsort/bool", (266, 166, "a34e59228cd8ab13d48ff726d568d74b", "50534951a6ed82d279c3bd6bf2ac5722"));
    ("qsort/pc", (266, 166, "6a96e03c35c1340839a8ab44f06a52d8", "360c3ac30b299e30bd6c4a9e1694e7a6"));
    ("qsort/set", (266, 166, "a729f1f5d891072f1ca51e51b871d658", "7a7af8bace437110d1a83170f1f42d99"));
    ("rle/bool", (150, 48, "b41a820479c54a35720ace6831717989", "1186a24d55ef9af640f851d8e4fdcfe2"));
    ("rle/pc", (150, 48, "0e582e4df79715d82b8d9dc5041610f2", "ffb2db61dc4886a8581d8423f8226128"));
    ("rle/set", (150, 48, "e9c649ca32564412539477b88b5faef2", "221faa78e0b09ef74e51d787aaed9a81"));
    ("search/bool", (144, 30, "7f02c475ee8fce954c8099e88adbed43", "36f593500d7a678c5982437d02d69060"));
    ("search/pc", (144, 30, "afb8d7b09a61b7354a6d67c94311531d", "b1914f7ba9f1fc4564407abccc56e090"));
    ("search/set", (144, 30, "f60c39113854bda2ff12bf8c93edd184", "bb09ed928b870d5d6b18f89d13650e5a"));
    ("hash/bool", (49, 21, "9dcd22429b96e37936a17f562b27795a", "40b1a7055a12f3ae8c7020b3c86828ac"));
    ("hash/pc", (49, 21, "e0cb838c2d8e9ded2b98f8c4d74051f6", "9b7aa5ec614e7df5701e111280b80b1d"));
    ("hash/set", (49, 21, "6479477f4e6bf9d050731e8689b453ab", "3668a3f26327e83c82f084ff20c1fa2e"));
    ("crc/bool", (14, 8, "d58bfe5fb8e8d4965e8b788e7a4824a6", "c1e814844658e13cada74bbd070954c1"));
    ("crc/pc", (14, 8, "cc6fa31129bb5741bebc5e2ec0b6422b", "6174455551e4ca888af56c3f1f01f0c5"));
    ("crc/set", (14, 8, "b29a5df3ed5456ecf6cc5ba9d9ea3748", "9b72e4f8e3a9a890a7b2cd0302761730"));
    ("sieve/bool", (72, 14, "11c9224d1f98b4dcae5abd23948d7538", "588173051b31e838a7660e015a60152c"));
    ("sieve/pc", (72, 14, "f7d21e7443d3bb3b66050a0cae3a10c5", "2e86d90c21d4565db5cd491eb19df39c"));
    ("sieve/set", (72, 14, "c10aba34f423f1ab383f724e9611e7a9", "945d8ba20b2c0ca3ddbe4fb717dcb032"));
    ("poly/bool", (235, 20, "187b920586b9aba40eced06ce24e9966", "81141b8020c22b6bfbf7283b8ed96ac3"));
    ("poly/pc", (235, 20, "e4c36bc3e56d4206fb4dd5cb47a6b3d8", "4a6e93f24552cbf75653d7635a3c8060"));
    ("poly/set", (235, 20, "ed007129760a79e28fd402690ad4df29", "702d0a0dee68d12281a0ab11373943b5"));
    ("butterfly/bool", (45080, 1040, "5873a33bd9f96f50d288273994ecdfcd", "e08ec53ed62e3be8901113307dfd91cd"));
    ("butterfly/pc", (45080, 1040, "1c0edc532b2268a94d45b50f3fea7127", "5de1528e750ebd85cfbb57c34d564f20"));
    ("butterfly/set", (45080, 1040, "47d9401ad4ba460ca8a670746c4b3864", "6d546d85a47d8677f9a0ba053dcad702"));
    ("bfs/bool", (273, 76, "54d1b7a4be37810e5f67152998b8eebe", "60611c709e15468e04ab8a49cb691684"));
    ("bfs/pc", (273, 76, "1c427ca0d4d0e84fc6f6cc3756120e4f", "3c76e272b8b2ca557b02ef171056f3fd"));
    ("bfs/set", (273, 76, "bdf9191465b0fc7bb3e0fc8612d4ec25", "838211e4f3f6f4cb77f99b74d9b3371e"));
    ("treesum/bool", (55, 50, "90b56050729d86b9c52e59f0d5fa5f71", "c3c8881a7f7cb8431369324a9abf07a1"));
    ("treesum/pc", (55, 50, "2e13355ff3e057edd6b7b6ee0789fc61", "b8ca98b418487ffe8cc066ec8a791500"));
    ("treesum/set", (55, 50, "eb3949ba5d8521c9659bf535ba8fcebe", "1f860c40f3d1ccf7223fb3b387cb5683"));
    ("feistel/bool", (63, 92, "7b8fa701f0530640492a9d4f807f6666", "f66fd1ea7b744700fc1c359a9114cd10"));
    ("feistel/pc", (63, 92, "c86a377d9111e5f54d6e34d26be3c96a", "7036d49edbb453a77ce1ee26d9445eaf"));
    ("feistel/set", (63, 92, "47ff4c1185370de4c1b8ab5f1292f3da", "826893a23e77aeb5af43cd6f21ee94bb"));
    ("stencil/bool", (545, 69, "b488ec6b53a441f8442f18d09cb7f814", "451707441f78e29d9c1947258840da11"));
    ("stencil/pc", (545, 69, "3374c4a1448e2794d52c49a04b27fec1", "81bfba0887bd53a0ea4130c559360369"));
    ("stencil/set", (545, 69, "2eb574d44a7ba114a41401b28fad6daa", "e7ea1c81d895e9ca7a9fb1e495d00be0"));
    ("stencil_racy/bool", (545, 69, "322e54da1fefbb94a1d20a8ea16b26ae", "451707441f78e29d9c1947258840da11"));
    ("stencil_racy/pc", (545, 69, "6f2d22b1b084f12feec1bb6c1816747f", "592d35c704ce14862d54295fddbb5bb0"));
    ("stencil_racy/set", (545, 69, "d058c4cf84f767f63494c9591ec74712", "d77ebe22ce27b6e5c7e24c94d98be901"));
    ("bank/bool", (238, 40, "9f8a83cd016344a9fc02def7cca0a548", "ab15ac7bc11e16d6c81d1f6d6bcd288c"));
    ("bank/pc", (238, 40, "d3b2c66dee3d8ac8dc4dc8bc0a9a989a", "6016236097739bb43c349f3eee8d9d6d"));
    ("bank/set", (238, 40, "b36748318202c0439dbcd8ac58621d2d", "6d9fa6c07acc15d7dbcd0f965553efa3"));
    ("bank_racy/bool", (207, 34, "774d970d36e732a5d288c2c7960c3e30", "3ffb95d9ca37586c38bd0ae55019388e"));
    ("bank_racy/pc", (207, 34, "33195b586cfb14e8590dd7a9d7a8e378", "02ab5d6c024d6db347f50595e8c4dab8"));
    ("bank_racy/set", (207, 34, "9b38c9ef3dbfa2bbe4e244ee1987b601", "969dbaaae3a462bf650dbe9c430f9b5a"));
    ("bank_racy_checked/bool", (208, 35, "02b2406e4f0d85abb1df10d0f6fa86f3", "1e0780e6cf34fb6e6845646a467bad29"));
    ("bank_racy_checked/pc", (208, 35, "1d8493c0b78366ff689fd8ae5f515ce4", "681f2cd2247389aa494f79faca9477e7"));
    ("bank_racy_checked/set", (208, 35, "a1d4b9f4b32410307880886b069324aa", "e11c12828dbc48338acf8fa45a50f039"));
    ("flag_pipeline/bool", (1561, 15, "78c73c202446200b103937736235fa10", "7940ec14286ed26b86607123a40e5200"));
    ("flag_pipeline/pc", (1561, 15, "7bdf9a1c69874ec6fbacc368a32a5098", "ab2d4237620775248fe6962cd901bcf2"));
    ("flag_pipeline/set", (1561, 15, "2660163829d559693eaa44a445dbef01", "366b1c1a4f2981484d8fce22236e3c8b"));
    ("spin_barrier/bool", (0, 0, "99a9e4a205d212d090238cf8a15be6c6", "d41d8cd98f00b204e9800998ecf8427e"));
    ("spin_barrier/pc", (0, 0, "901ad9e2c09feaf70d6570b424bdba05", "d41d8cd98f00b204e9800998ecf8427e"));
    ("spin_barrier/set", (0, 0, "f74d5d084f35f06945e15c71d48ec389", "d41d8cd98f00b204e9800998ecf8427e"));
    ("lock_order_deadlock/bool", (0, 0, "262e6b8165c42adfad48c2048a70841e", "d41d8cd98f00b204e9800998ecf8427e"));
    ("lock_order_deadlock/pc", (0, 0, "cfe442ee354905854a6169e7b1aae4d2", "d41d8cd98f00b204e9800998ecf8427e"));
    ("lock_order_deadlock/set", (0, 0, "2c12986cd54af2d4905d3296f85be4f8", "d41d8cd98f00b204e9800998ecf8427e"));
  ]

let test_golden () =
  List.iter
    (fun (name, program, input) ->
      List.iter
        (fun (dom, probe) ->
          let p = probe program input in
          let key = name ^ "/" ^ dom in
          match List.assoc_opt key expected with
          | None -> Alcotest.failf "%s: no expected values" key
          | Some (hits, tainted, sinks, shadow) ->
              Alcotest.(check int) (key ^ ": sink hits") hits p.hits;
              Alcotest.(check int)
                (key ^ ": tainted locations")
                tainted p.tainted;
              Alcotest.(check string) (key ^ ": sink stream") sinks p.sinks;
              Alcotest.(check string) (key ^ ": final shadow") shadow p.shadow)
        domains)
    kernels

(* Two branches closing at the same pc share one region entry, which
   must keep both branches' taints: here the inner region on [c]
   closes first, and the active taint recomputed from the remaining
   entries must still name inputs 0 and 1.  The conditions are read
   before any region opens, so neither carries the other's taint. *)
let test_same_close_pc_joins () =
  let reg = Operand.reg in
  let p =
    Program.make
      [
        Builder.define ~name:"main" ~arity:0 (fun b ->
            Builder.read b Reg.r0;
            Builder.read b Reg.r1;
            Builder.read b Reg.r2;
            Builder.if_nz1 b (reg Reg.r0) (fun () ->
                Builder.if_nz1 b (reg Reg.r1) (fun () ->
                    Builder.if_nz1 b (reg Reg.r2) (fun () -> Builder.nop b);
                    Builder.movi b Reg.r3 5;
                    Builder.write b (reg Reg.r3)));
            Builder.halt b);
      ]
  in
  let module E = Engine.Make (Taint.Input_set) in
  let m = Machine.create p ~input:[| 1; 1; 1 |] in
  let eng = E.create ~policy:Policy.full p in
  let out = ref [] in
  E.on_sink eng (fun sink taint _ ->
      if sink = Engine.Sink_output then out := Taint.Int_set.elements taint);
  E.attach eng m;
  ignore (Machine.run m);
  Alcotest.(check (list int))
    "output controlled by inputs 0 and 1" [ 0; 1 ] !out

(* -- region depth ---------------------------------------------------------

   A frame holds one control region per distinct close pc, so the open
   regions of a thread never exceed the distinct immediate
   postdominators of the branches along its call chain — however many
   times a loop branches on tainted data.  A probe tool attached after
   the engine reads the depth at every event and tracks that bound
   through calls and returns. *)

module E_bool = Engine.Make (Taint.Bool)

(* distinct close pcs a function's branches can open *)
let distinct_ipdoms static (f : Func.t) =
  let closes = ref [] in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Instr.Br _ ->
          let c = Static_info.ipdom static f pc in
          if not (List.mem c !closes) then closes := c :: !closes
      | _ -> ())
    f.Func.body;
  List.length !closes

(* (max depth seen, max bound seen) over one single-threaded run *)
let depth_run (w : Workload.t) size =
  let program = w.Workload.program in
  let static = Static_info.create program in
  let eng = E_bool.create ~policy:Policy.full program in
  let m = Machine.create program ~input:(w.Workload.input ~size ~seed:1) in
  E_bool.attach eng m;
  let entry = Program.find program (Program.entry program) in
  let chain = ref [ distinct_ipdoms static entry ] in
  let max_depth = ref 0 and max_bound = ref 0 in
  let on_view (v : Event.view) =
    let depth = E_bool.control_depth eng ~tid:v.Event.v_tid in
    let bound = List.fold_left ( + ) 0 !chain in
    if depth > bound then
      Alcotest.failf "%s %d: %d open regions at step %d, bound %d"
        w.Workload.name size depth v.Event.v_step bound;
    max_depth := max !max_depth depth;
    max_bound := max !max_bound bound;
    match v.Event.v_instr with
    | Instr.Call (fname, _) ->
        chain := distinct_ipdoms static (Program.find program fname) :: !chain
    | Instr.Icall _ -> (
        match Program.func_of_id program v.Event.v_value with
        | Some f -> chain := distinct_ipdoms static f :: !chain
        | None -> ())
    | Instr.Ret _ -> (
        match !chain with _ :: (_ :: _ as rest) -> chain := rest | _ -> ())
    | _ -> ()
  in
  Machine.attach m (Tool.make ~on_view "depth-probe");
  ignore (Machine.run m);
  (!max_depth, !max_bound)

(* Poly's call chain is as deep at every size, so its maximum depth
   must not move at all; qsort recurses deeper on a larger array,
   holding regions open in every pending frame, so its maximum may
   grow only by what the deeper chain admits. *)
let test_depth_bounded () =
  List.iter
    (fun (w : Workload.t) ->
      let name = w.Workload.name in
      let d_small, b_small = depth_run w 250 in
      let d_large, b_large = depth_run w 2000 in
      Alcotest.(check bool) (name ^ ": some region opens") true (d_small > 0);
      Alcotest.(check bool)
        (Fmt.str "%s: depth %d -> %d grows no more than the bound %d -> %d"
           name d_small d_large b_small b_large)
        true
        (d_large - d_small <= b_large - b_small);
      if b_small = b_large then
        Alcotest.(check int) (name ^ ": max depth at 2000 = at 250") d_small
          d_large)
    [ Spec_like.qsort; Spec_like.poly ]

let suite =
  [
    Alcotest.test_case "implicit flow matches the golden digests" `Quick
      test_golden;
    Alcotest.test_case "same-close-pc regions keep every taint" `Quick
      test_same_close_pc_joins;
    Alcotest.test_case "open regions bounded by distinct ipdoms" `Quick
      test_depth_bounded;
  ]
