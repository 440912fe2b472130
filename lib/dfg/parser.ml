(* Line-oriented DFG reader. Words are tracked with their source columns so
   every rejection carries a real span; lines are normalised for CRLF
   endings before splitting, so Windows-edited files parse identically. *)

type word = { w : string; col : int }

let is_space c = c = ' ' || c = '\t'

(* Words of [line] with their 1-based start columns; comments stripped. *)
let split_words line =
  let line =
    match String.index_opt line '#' with
    | None -> line
    | Some i -> String.sub line 0 i
  in
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_space line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (is_space line.[!j]) do incr j done;
      go !j ({ w = String.sub line i (!j - i); col = i + 1 } :: acc)
    end
  in
  go 0 []

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let parse_guard w =
  if String.length w > 1 && w.[0] = '!' then
    (String.sub w 1 (String.length w - 1), false)
  else (w, true)

let rec split_at_sign acc = function
  | [] -> (List.rev acc, [])
  | { w = "@"; _ } :: rest -> (List.rev acc, rest)
  | w :: rest -> split_at_sign (w :: acc) rest

type row = {
  r_name : word;
  r_kind : Op.kind;
  r_args : word list;
  r_guards : (word * bool) list;
  r_line : int;
}

let err ~line word ~code fmt =
  Printf.ksprintf
    (fun s ->
      Error (Diag.input ~span:(Diag.span_of_word ~line ~col:word.col word.w) ~code s))
    fmt

type annot =
  | A_range of word * int * int
  | A_width of word * int
  | A_array of word * int * string option
  | A_bank of word * int

let parse src =
  let lines = List.map strip_cr (String.split_on_char '\n' src) in
  (* First pass: collect declarations, with spans. *)
  let rec collect lineno inputs rows annots = function
    | [] -> Ok (List.rev inputs, List.rev rows, List.rev annots)
    | line :: rest -> (
        match split_words line with
        | [] -> collect (lineno + 1) inputs rows annots rest
        | { w = "input"; col } :: names ->
            if names = [] then
              err ~line:lineno { w = "input"; col } ~code:"parse.empty-input"
                "input declaration without names"
            else
              collect (lineno + 1)
                (List.rev_append
                   (List.map (fun n -> (n, lineno)) names)
                   inputs)
                rows annots rest
        | { w = "array"; _ } :: name :: size :: bank_tail
          when bank_tail = []
               || (match bank_tail with
                  | [ { w = "bank"; _ }; _ ] -> true
                  | _ -> false) -> (
            let bank =
              match bank_tail with [ _; b ] -> Some b.w | _ -> None
            in
            match int_of_string_opt size.w with
            | Some n when n >= 1 ->
                collect (lineno + 1) inputs rows
                  ((A_array (name, n, bank), lineno) :: annots)
                  rest
            | Some n ->
                err ~line:lineno size ~code:"parse.bad-array"
                  "array %S needs a positive size, got %d" name.w n
            | None ->
                err ~line:lineno size ~code:"parse.bad-array"
                  "array size must be an integer")
        | { w = "array"; col } :: _ ->
            err ~line:lineno { w = "array"; col } ~code:"parse.bad-array"
              "expected: array <name> <size> [bank <bank>]"
        | { w = "mem"; _ } :: name :: { w = "ports"; _ } :: ports :: [] -> (
            match int_of_string_opt ports.w with
            | Some n when n >= 1 ->
                collect (lineno + 1) inputs rows
                  ((A_bank (name, n), lineno) :: annots)
                  rest
            | Some n ->
                err ~line:lineno ports ~code:"parse.bad-mem"
                  "bank %S needs a positive port count, got %d" name.w n
            | None ->
                err ~line:lineno ports ~code:"parse.bad-mem"
                  "port count must be an integer")
        | { w = "mem"; col } :: _ ->
            err ~line:lineno { w = "mem"; col } ~code:"parse.bad-mem"
              "expected: mem <bank> ports <n>"
        | { w = "range"; _ } :: name :: lo :: hi :: [] -> (
            match (int_of_string_opt lo.w, int_of_string_opt hi.w) with
            | Some lo_v, Some hi_v when lo_v <= hi_v ->
                collect (lineno + 1) inputs rows
                  ((A_range (name, lo_v, hi_v), lineno) :: annots)
                  rest
            | Some lo_v, Some hi_v ->
                err ~line:lineno name ~code:"parse.bad-range"
                  "range for %S is empty (%d > %d)" name.w lo_v hi_v
            | _ ->
                err ~line:lineno lo ~code:"parse.bad-range"
                  "range bounds must be integers")
        | { w = "range"; col } :: _ ->
            err ~line:lineno { w = "range"; col } ~code:"parse.bad-range"
              "expected: range <value> <lo> <hi>"
        | { w = "width"; _ } :: name :: bits :: [] -> (
            match int_of_string_opt bits.w with
            | Some w_v when w_v >= 1 && w_v <= 64 ->
                collect (lineno + 1) inputs rows
                  ((A_width (name, w_v), lineno) :: annots)
                  rest
            | Some w_v ->
                err ~line:lineno bits ~code:"parse.bad-width"
                  "width must be 1..64 bits, got %d" w_v
            | None ->
                err ~line:lineno bits ~code:"parse.bad-width"
                  "width must be an integer")
        | { w = "width"; col } :: _ ->
            err ~line:lineno { w = "width"; col } ~code:"parse.bad-width"
              "expected: width <value> <bits>"
        | name :: { w = "="; _ } :: op :: tail -> (
            match Op.of_string op.w with
            | None ->
                err ~line:lineno op ~code:"parse.unknown-op"
                  "unknown operation %S" op.w
            | Some kind ->
                let args, guard_words = split_at_sign [] tail in
                let guards =
                  List.map
                    (fun gw ->
                      let name, arm = parse_guard gw.w in
                      ( { w = name; col = (gw.col + if arm then 0 else 1) },
                        arm ))
                    guard_words
                in
                collect (lineno + 1) inputs
                  ({ r_name = name; r_kind = kind; r_args = args;
                     r_guards = guards; r_line = lineno }
                  :: rows)
                  annots rest)
        | w :: _ ->
            err ~line:lineno w ~code:"parse.bad-declaration"
              "cannot parse declaration near %S" w.w)
  in
  match collect 1 [] [] [] lines with
  | Error _ as e -> e
  | Ok (inputs, rows, annots) -> (
      (* Second pass: span-carrying validation of names, operand references
         and arities. Operand references may be forward, so they resolve
         against the full set of declared names. *)
      let defined = Hashtbl.create 32 in
      List.iter (fun (n, _) -> Hashtbl.replace defined n.w ()) inputs;
      List.iter (fun r -> Hashtbl.replace defined r.r_name.w ()) rows;
      let array_names = Hashtbl.create 8 in
      List.iter
        (fun (a, _) ->
          match a with
          | A_array (n, _, _) -> Hashtbl.replace array_names n.w ()
          | A_range _ | A_width _ | A_bank _ -> ())
        annots;
      let seen = Hashtbl.create 32 in
      List.iter (fun (n, _) -> Hashtbl.replace seen n.w `Input) inputs;
      (* Array names share the value namespace; bank names have their own. *)
      let rec check_decls bank_seen = function
        | [] -> Ok ()
        | (A_array (n, _, _), line) :: rest ->
            if Hashtbl.mem seen n.w then
              err ~line n ~code:"parse.duplicate-name"
                "value %S is defined twice" n.w
            else begin
              Hashtbl.replace seen n.w `Array;
              check_decls bank_seen rest
            end
        | (A_bank (n, _), line) :: rest ->
            if List.mem n.w bank_seen then
              err ~line n ~code:"parse.duplicate-name"
                "bank %S is declared twice" n.w
            else check_decls (n.w :: bank_seen) rest
        | ((A_range _ | A_width _), _) :: rest -> check_decls bank_seen rest
      in
      let check_row r =
        (match Hashtbl.find_opt seen r.r_name.w with
        | Some _ ->
            err ~line:r.r_line r.r_name ~code:"parse.duplicate-name"
              "value %S is defined twice" r.r_name.w
        | None ->
            Hashtbl.replace seen r.r_name.w `Op;
            Ok ())
        |> function
        | Error _ as e -> e
        | Ok () -> (
            let expected = Op.arity r.r_kind in
            if List.length r.r_args <> expected then
              err ~line:r.r_line r.r_name ~code:"parse.arity"
                "operation %s takes %d operand(s), got %d"
                (Op.to_string r.r_kind) expected (List.length r.r_args)
            else
              (* A memory access names a declared array first; everywhere
                 else an array name is not a value. *)
              let value_args =
                if Op.is_mem r.r_kind then List.tl r.r_args else r.r_args
              in
              let arr_check =
                match (Op.is_mem r.r_kind, r.r_args) with
                | true, a :: _ when not (Hashtbl.mem array_names a.w) ->
                    err ~line:r.r_line a ~code:"parse.unknown-array"
                      "%s expects a declared array, got %S"
                      (Op.to_string r.r_kind) a.w
                | _ -> Ok ()
              in
              match arr_check with
              | Error _ as e -> e
              | Ok () -> (
                  let bad_ref =
                    List.find_opt
                      (fun a ->
                        Hashtbl.mem array_names a.w
                        || not (Hashtbl.mem defined a.w))
                      (value_args @ List.map fst r.r_guards)
                  in
                  match bad_ref with
                  | Some a when Hashtbl.mem array_names a.w ->
                      err ~line:r.r_line a ~code:"parse.array-as-value"
                        "array %S cannot be used as a plain value" a.w
                  | Some a ->
                      err ~line:r.r_line a ~code:"parse.unknown-value"
                        "operand %S names no input or operation" a.w
                  | None -> Ok ()))
      in
      let rec check = function
        | [] -> Ok ()
        | r :: rest -> ( match check_row r with Ok () -> check rest | e -> e)
      in
      let rec check_annots = function
        | [] -> Ok ()
        | ((A_array _ | A_bank _), _) :: rest -> check_annots rest
        | (a, line) :: rest ->
            let name =
              match a with
              | A_range (n, _, _) | A_width (n, _) -> n
              | A_array _ | A_bank _ -> assert false
            in
            if not (Hashtbl.mem defined name.w) then
              err ~line name ~code:"parse.unknown-value"
                "annotation names no input or operation: %S" name.w
            else check_annots rest
      in
      match
        match check_decls [] annots with
        | Error _ as e -> e
        | Ok () -> (
            match check rows with
            | Error _ as e -> e
            | Ok () -> check_annots annots)
      with
      | Error _ as e -> e
      | Ok () -> (
          let b = Graph.Builder.create () in
          List.iter (fun (n, _) -> Graph.Builder.add_input b n.w) inputs;
          List.iter
            (fun r ->
              Graph.Builder.add_op
                ~guards:(List.map (fun (gw, arm) -> (gw.w, arm)) r.r_guards)
                b ~name:r.r_name.w r.r_kind
                (List.map (fun a -> a.w) r.r_args))
            rows;
          List.iter
            (fun (a, _) ->
              match a with
              | A_range (n, lo, hi) -> Graph.Builder.declare_range b n.w (lo, hi)
              | A_width (n, w) -> Graph.Builder.declare_width b n.w w
              | A_array (n, size, bank) ->
                  Graph.Builder.declare_array ?bank b ~name:n.w ~size
              | A_bank (n, ports) -> Graph.Builder.declare_bank b ~name:n.w ~ports)
            annots;
          (* Whole-graph properties (cycles, guard scoping) have no single
             source position. *)
          Graph.Builder.build b))

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> Result.map_error (Diag.with_file path) (parse src)
  | exception Sys_error msg -> Error (Diag.input ~code:"io.read" msg)

let to_source g =
  let buf = Buffer.create 256 in
  (match Graph.inputs g with
  | [] -> ()
  | ins -> Buffer.add_string buf ("input " ^ String.concat " " ins ^ "\n"));
  List.iter
    (fun (bk : Graph.bank_decl) ->
      Buffer.add_string buf
        (Printf.sprintf "mem %s ports %d\n" bk.Graph.b_name bk.Graph.b_ports))
    (Graph.banks g);
  List.iter
    (fun (a : Graph.array_decl) ->
      Buffer.add_string buf
        (if String.equal a.Graph.a_bank a.Graph.a_name then
           Printf.sprintf "array %s %d\n" a.Graph.a_name a.Graph.a_size
         else
           Printf.sprintf "array %s %d bank %s\n" a.Graph.a_name
             a.Graph.a_size a.Graph.a_bank))
    (Graph.arrays g);
  List.iter
    (fun nd ->
      Buffer.add_string buf
        (Printf.sprintf "%s = %s %s" nd.Graph.name
           (Op.to_string nd.Graph.kind)
           (String.concat " " nd.Graph.args));
      (match nd.Graph.guards with
      | [] -> ()
      | gs ->
          Buffer.add_string buf " @ ";
          Buffer.add_string buf
            (String.concat " "
               (List.map (fun (c, arm) -> (if arm then "" else "!") ^ c) gs)));
      Buffer.add_char buf '\n')
    (Graph.nodes g);
  List.iter
    (fun (v, (lo, hi)) ->
      Buffer.add_string buf (Printf.sprintf "range %s %d %d\n" v lo hi))
    (Graph.ranges g);
  List.iter
    (fun (v, w) ->
      Buffer.add_string buf (Printf.sprintf "width %s %d\n" v w))
    (Graph.declared_widths g);
  Buffer.contents buf
