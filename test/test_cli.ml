(* Every diftc subcommand renders its --help page without a cmdliner
   error.  Doc strings use cmdliner's markup, and a bad escape in one
   only shows when its page is rendered, as a "cmdliner error" line in
   the middle of the help text. *)

let diftc = Filename.concat (Filename.concat ".." "bin") "diftc.exe"

(* Output (stdout and stderr) and exit code of one diftc call. *)
let run args =
  let cmd = Filename.quote_command diftc args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (out, code)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (out, -1)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The subcommand names listed under the top-level page's COMMANDS
   section: the lines indented by exactly seven spaces. *)
let subcommands top =
  let lines = String.split_on_char '\n' top in
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.trim l = "COMMANDS" then rest else skip rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest ->
        if l <> "" && l.[0] <> ' ' then List.rev acc
        else if
          String.length l > 7
          && String.sub l 0 7 = "       "
          && l.[7] <> ' '
        then
          let name = List.hd (String.split_on_char ' ' (String.trim l)) in
          take (name :: acc) rest
        else take acc rest
  in
  take [] (skip lines)

let check_page what (out, code) =
  Alcotest.(check int) (what ^ " exits 0") 0 code;
  Alcotest.(check bool)
    (what ^ " renders without a cmdliner error")
    false
    (contains out "cmdliner error")

let test_help_pages () =
  let top = run [ "--help=plain" ] in
  check_page "diftc --help" top;
  let cmds = subcommands (fst top) in
  Alcotest.(check bool)
    (Fmt.str "found the subcommands (%s)" (String.concat " " cmds))
    true
    (List.mem "taint" cmds && List.length cmds >= 10);
  List.iter
    (fun c -> check_page (Fmt.str "diftc %s --help" c) (run [ c; "--help=plain" ]))
    cmds

let suite =
  [ Alcotest.test_case "every subcommand renders --help" `Quick test_help_pages ]
