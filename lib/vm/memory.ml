(** Sparse word-addressed memory with a bump heap allocator.

    Addresses below {!heap_base} form the static/global region, freely
    usable by programs.  [Sys Alloc] hands out blocks from the heap
    region and remembers their extents, which lets applications reason
    about heap overflows and lets the avoidance framework pad
    allocations (an "environment patch" in the paper's sense).

    Cells live in a page table: a growable directory of
    [page_size]-word pages, allocated on the first non-zero write, so a
    read or write is a shift, a mask and two array probes — no hashing
    and no allocation once the page exists.  Addresses beyond the
    directory's reach (or negative ones, which the machine faults on
    before they get here) fall back to a hashtable. *)

type block = { base : int; size : int; mutable live : bool }

let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Pages the directory may grow to: 16 M addresses, well past the
   heap of any bundled workload. *)
let max_pages = 1 lsl 14

(* The absent-page marker: physically unique, never written. *)
let no_page : int array = [||]

type t = {
  mutable dir : int array array;  (** page [p]: addresses [p * page_size ..] *)
  far : (int, int) Hashtbl.t;  (** non-zero cells outside the directory *)
  mutable live_cells : int;  (** non-zero cells *)
  blocks : (int, block) Hashtbl.t;  (** keyed by base address *)
  mutable next : int;  (** bump pointer *)
  padding : int;  (** extra slack appended to every allocation *)
}

(** First heap address; everything below is the global region. *)
let heap_base = 1_000_000

let create ?(padding = 0) () =
  {
    dir = [||];
    far = Hashtbl.create 16;
    live_cells = 0;
    blocks = Hashtbl.create 64;
    next = heap_base;
    padding;
  }

(* [lsr] sends negative addresses past [max_pages], to [far]. *)
let in_dir addr = addr lsr page_bits < max_pages

let read m addr =
  let p = addr lsr page_bits in
  if p < Array.length m.dir then
    let page = Array.unsafe_get m.dir p in
    if page == no_page then 0 else Array.unsafe_get page (addr land page_mask)
  else if p < max_pages then 0
  else match Hashtbl.find m.far addr with v -> v | exception Not_found -> 0

(* The page holding [addr], allocated (and the directory grown) when
   missing. *)
let page_for m p =
  if p >= Array.length m.dir then begin
    let n = Array.length m.dir in
    let dir = Array.make (min max_pages (max (p + 1) (2 * n))) no_page in
    Array.blit m.dir 0 dir 0 n;
    m.dir <- dir
  end;
  let page = m.dir.(p) in
  if page != no_page then page
  else begin
    let page = Array.make page_size 0 in
    m.dir.(p) <- page;
    page
  end

let write m addr v =
  if in_dir addr then begin
    let p = addr lsr page_bits in
    let page = if p < Array.length m.dir then m.dir.(p) else no_page in
    (* writing zero never allocates a page: absent reads as zero *)
    if page != no_page || v <> 0 then begin
      let page = if page == no_page then page_for m p else page in
      let i = addr land page_mask in
      let old = page.(i) in
      if old = 0 && v <> 0 then m.live_cells <- m.live_cells + 1
      else if old <> 0 && v = 0 then m.live_cells <- m.live_cells - 1;
      page.(i) <- v
    end
  end
  else if v = 0 then begin
    if Hashtbl.mem m.far addr then begin
      Hashtbl.remove m.far addr;
      m.live_cells <- m.live_cells - 1
    end
  end
  else begin
    if not (Hashtbl.mem m.far addr) then m.live_cells <- m.live_cells + 1;
    Hashtbl.replace m.far addr v
  end

let alloc m size =
  let size = max size 1 in
  let base = m.next in
  (* Padding is slack owned by the block: small overflows land in it
     harmlessly instead of in the neighbour — the avoidance
     framework's heap patch. *)
  let padded = size + m.padding in
  m.next <- m.next + padded + 1;
  Hashtbl.replace m.blocks base { base; size = padded; live = true };
  base

(** [free m base] releases a block; [Error] when [base] is not the
    base address of a live block. *)
let free m base =
  match Hashtbl.find_opt m.blocks base with
  | Some b when b.live ->
      b.live <- false;
      Ok ()
  | Some _ | None -> Error `Invalid_free

(** The live block containing [addr], if any. *)
let block_of m addr =
  (* Linear scan is fine: workloads allocate at most a few thousand
     blocks, and this is only used off the hot path (bounds checking,
     overflow diagnosis). *)
  Hashtbl.fold
    (fun _ b acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if b.live && addr >= b.base && addr < b.base + b.size then Some b
          else None)
    m.blocks None

let in_heap m addr = addr >= heap_base && addr < m.next

(** Number of addresses currently holding a non-zero value. *)
let footprint m = m.live_cells

let cells m =
  let acc = ref [] in
  Array.iteri
    (fun p page ->
      Array.iteri
        (fun i v -> if v <> 0 then acc := ((p lsl page_bits) + i, v) :: !acc)
        page)
    m.dir;
  Hashtbl.iter (fun a v -> acc := (a, v) :: !acc) m.far;
  List.sort compare !acc

let copy_blocks blocks =
  let t = Hashtbl.create (Hashtbl.length blocks) in
  Hashtbl.iter (fun k b -> Hashtbl.replace t k { b with base = b.base }) blocks;
  t

let copy_dir dir =
  Array.map (fun page -> if page == no_page then no_page else Array.copy page) dir

(** Deep copy, for checkpointing. *)
let snapshot m =
  {
    dir = copy_dir m.dir;
    far = Hashtbl.copy m.far;
    live_cells = m.live_cells;
    blocks = copy_blocks m.blocks;
    next = m.next;
    padding = m.padding;
  }

let restore m ~from =
  m.dir <- copy_dir from.dir;
  Hashtbl.reset m.far;
  Hashtbl.iter (Hashtbl.replace m.far) from.far;
  m.live_cells <- from.live_cells;
  Hashtbl.reset m.blocks;
  Hashtbl.iter (Hashtbl.replace m.blocks) (copy_blocks from.blocks);
  m.next <- from.next
