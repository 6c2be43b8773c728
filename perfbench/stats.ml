(* Named series of samples and order statistics over them. *)

(* Samples by name, newest first. *)
type series = (string, float list) Hashtbl.t

let series () : series = Hashtbl.create 64

let add (s : series) name v =
  Hashtbl.replace s name
    (v :: Option.value (Hashtbl.find_opt s name) ~default:[])

let values (s : series) name =
  Option.value (Hashtbl.find_opt s name) ~default:[]

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method
   of Python's [statistics.quantiles]). *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The highest of the usual percentiles that still has at least ten
   samples beyond it; [None] when fewer than twenty samples exist. *)
let tail xs =
  let n = List.length xs in
  List.find_map
    (fun p ->
      let beyond = float_of_int n *. (1.0 -. (float_of_int p /. 100.0)) in
      if beyond >= 10.0 then Some (p, quantile xs (float_of_int p /. 100.0))
      else None)
    [ 99; 95; 90; 75; 50 ]
