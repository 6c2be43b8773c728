(** Sharding topology for the N-helper runtime; see the interface.

    Everything here is pure arithmetic over the integer {!Loc}
    encoding, so the application domain and every helper domain can
    evaluate the same routing function on the same event and agree on
    the verdict without sharing any state. *)

open Dift_vm

type t = { shards : int; block_bits : int }

(* 2^6 = 64 locations per block = exactly [Reg.count], so a whole
   register frame is one block and plain ALU traffic (reads and write
   inside one activation) stays on one shard; consecutive frames, and
   consecutive 64-word memory blocks, round-robin across shards. *)
let default_block_bits = 6

(* Participant sets are int bitmasks, one bit per shard. *)
let max_shards = Sys.int_size - 2

let create ?(block_bits = default_block_bits) ~shards () =
  if shards < 1 then
    invalid_arg (Fmt.str "Router.create: shards = %d < 1" shards);
  if shards > max_shards then
    invalid_arg
      (Fmt.str "Router.create: shards = %d > %d" shards max_shards);
  if block_bits < 0 || block_bits > 30 then
    invalid_arg
      (Fmt.str "Router.create: block_bits = %d outside [0, 30]" block_bits);
  { shards; block_bits }

let shards t = t.shards
let block_bits t = t.block_bits

(* [Loc] packs the plane tag in bit 0 (mem: [a lsl 1]; reg:
   [idx lsl 1 lor 1]), so [loc lsr 1] recovers the per-plane index.
   Both planes share the block ring; a shard owns locations from both. *)
let shard_of_loc t loc = (loc lsr 1) lsr t.block_bits mod t.shards

let owns t shard loc = shard_of_loc t loc = shard

(* The home shard executes the engine transfer function for the event:
   the owner of the first write if any (it keeps most stores local),
   else the owner of the first read (sink-only events such as [Br] and
   [Sys Write] evaluate where their operand taint lives), else a
   step-round-robin shard for events touching no tracked location. *)
let home_of t (e : Event.exec) =
  match e.writes with
  | w :: _ -> shard_of_loc t w
  | [] -> (
      match e.reads with
      | r :: _ -> shard_of_loc t r
      | [] -> e.step mod t.shards)

let mask_of_locs t locs =
  List.fold_left (fun m l -> m lor (1 lsl shard_of_loc t l)) 0 locs

let participants t (e : Event.exec) =
  (1 lsl home_of t e) lor mask_of_locs t e.reads lor mask_of_locs t e.writes

(* View-based variants: same arithmetic on the view's scratch arrays,
   so a boxed record and a view of the same event (the feeding domain's
   or a draining shard's) always reach the same verdict. *)
let mask_of_arr t arr n =
  let m = ref 0 in
  for i = 0 to n - 1 do
    m := !m lor (1 lsl shard_of_loc t arr.(i))
  done;
  !m

let home_of_view t (v : Event.view) =
  if v.Event.v_nwrites > 0 then shard_of_loc t v.Event.v_writes.(0)
  else if v.Event.v_nreads > 0 then shard_of_loc t v.Event.v_reads.(0)
  else v.Event.v_step mod t.shards

let participants_view t (v : Event.view) =
  (1 lsl home_of_view t v)
  lor mask_of_arr t v.Event.v_reads v.Event.v_nreads
  lor mask_of_arr t v.Event.v_writes v.Event.v_nwrites

let is_local mask = mask land (mask - 1) = 0

(* Iterate the set bits of a participant mask in ascending shard
   order — the canonical leg order the deadlock-freedom argument in
   [docs/forwarding-protocol.md] relies on. *)
let iter_shards mask f =
  let m = ref mask in
  let s = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then f !s;
    incr s;
    m := !m lsr 1
  done
