type node = {
  id : int;
  name : string;
  kind : Op.kind;
  args : string list;
  guards : (string * bool) list;
}

type array_decl = { a_name : string; a_size : int; a_bank : string }
type bank_decl = { b_name : string; b_ports : int }

type t = {
  node_arr : node array;
  pred_arr : int list array;
  succ_arr : int list array;
  input_list : string list;
  index : (string, int) Hashtbl.t;
  range_list : (string * (int * int)) list;
  width_list : (string * int) list;
  array_list : array_decl list;
  bank_list : bank_decl list;
}

module Builder = struct
  type pending = {
    p_name : string;
    p_kind : Op.kind;
    p_args : string list;
    p_guards : (string * bool) list;
  }

  type t = {
    mutable rev_inputs : string list;
    mutable rev_ops : pending list;
    mutable rev_ranges : (string * (int * int)) list;
    mutable rev_widths : (string * int) list;
    mutable rev_arrays : array_decl list;
    mutable rev_banks : bank_decl list;
  }

  let create () =
    { rev_inputs = []; rev_ops = []; rev_ranges = []; rev_widths = [];
      rev_arrays = []; rev_banks = [] }

  let add_input b name =
    if not (List.mem name b.rev_inputs) then
      b.rev_inputs <- name :: b.rev_inputs

  let declare_range b name (lo, hi) =
    b.rev_ranges <- (name, (lo, hi)) :: List.remove_assoc name b.rev_ranges

  let declare_width b name w =
    b.rev_widths <- (name, w) :: List.remove_assoc name b.rev_widths

  (* An array lives in a bank (defaulting to a private bank of its own
     name); the bank's port count caps simultaneous accesses per step. *)
  let declare_array ?bank b ~name ~size =
    let a_bank = Option.value ~default:name bank in
    b.rev_arrays <- { a_name = name; a_size = size; a_bank } :: b.rev_arrays

  let declare_bank b ~name ~ports =
    b.rev_banks <- { b_name = name; b_ports = ports } :: b.rev_banks

  let add_op ?(guards = []) b ~name kind args =
    b.rev_ops <-
      { p_name = name; p_kind = kind; p_args = args; p_guards = guards }
      :: b.rev_ops

  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

  let check_unique inputs arrays ops =
    let seen = Hashtbl.create 64 in
    let rec go kind_of = function
      | [] -> Ok ()
      | name :: rest ->
          if Hashtbl.mem seen name then
            Error (Printf.sprintf "duplicate value name %S" name)
          else begin
            Hashtbl.add seen name ();
            go kind_of rest
          end
    in
    let* () = go "input" inputs in
    (* Arrays share the value namespace: an operand position holds either
       a value name or (first operand of a memory access only) an array. *)
    let* () = go "array" (List.map (fun a -> a.a_name) arrays) in
    go "node" (List.map (fun p -> p.p_name) ops)

  let check_mem arrays banks ops =
    let rec go_a = function
      | [] -> Ok ()
      | a :: rest ->
          if a.a_size < 1 then
            Error
              (Printf.sprintf "array %S has non-positive size %d" a.a_name
                 a.a_size)
          else go_a rest
    in
    let rec go_b seen = function
      | [] -> Ok ()
      | b :: rest ->
          if List.mem b.b_name seen then
            Error (Printf.sprintf "duplicate bank declaration %S" b.b_name)
          else if b.b_ports < 1 then
            Error
              (Printf.sprintf "bank %S has non-positive port count %d"
                 b.b_name b.b_ports)
          else go_b (b.b_name :: seen) rest
    in
    let is_array n = List.exists (fun a -> String.equal a.a_name n) arrays in
    let rec go_ops = function
      | [] -> Ok ()
      | p :: rest -> (
          match (Op.is_mem p.p_kind, p.p_args) with
          | true, arr :: _ when not (is_array arr) ->
              Error
                (Printf.sprintf
                   "node %S: %s expects a declared array first, got %S"
                   p.p_name (Op.to_string p.p_kind) arr)
          | true, _ ->
              let offender =
                List.find_opt is_array
                  (List.tl p.p_args @ List.map fst p.p_guards)
              in
              (match offender with
              | Some arr ->
                  Error
                    (Printf.sprintf
                       "node %S uses array %S as a plain value" p.p_name arr)
              | None -> go_ops rest)
          | false, args ->
              let offender =
                List.find_opt is_array (args @ List.map fst p.p_guards)
              in
              (match offender with
              | Some arr ->
                  Error
                    (Printf.sprintf
                       "node %S uses array %S as a plain value" p.p_name arr)
              | None -> go_ops rest))
    in
    let* () = go_a arrays in
    let* () = go_b [] banks in
    go_ops ops

  let check_arities ops =
    let rec go = function
      | [] -> Ok ()
      | p :: rest ->
          let expected = Op.arity p.p_kind in
          let got = List.length p.p_args in
          if expected <> got then
            Error
              (Printf.sprintf "node %S: %s expects %d operand(s), got %d"
                 p.p_name (Op.to_string p.p_kind) expected got)
          else go rest
    in
    go ops

  (* A value is defined exactly when its guards hold, so every consumer
     must be at least as restricted as the producer: guards(producer)
     must be a subset of guards(consumer). This rejects cross-branch
     reads (a then-branch value consumed in the else branch or in
     unconditional code), which have no execution under which they are
     well defined. *)
  let check_guard_scoping ops =
    let guards_of = Hashtbl.create 32 in
    List.iter (fun p -> Hashtbl.replace guards_of p.p_name p.p_guards) ops;
    let subset a b =
      List.for_all (fun (c, arm) ->
          List.exists (fun (c', arm') -> String.equal c c' && arm = arm') b)
        a
    in
    let rec go = function
      | [] -> Ok ()
      | p :: rest ->
          let sources =
            p.p_args @ List.map fst p.p_guards
          in
          let offender =
            List.find_opt
              (fun src ->
                match Hashtbl.find_opt guards_of src with
                | Some src_guards -> not (subset src_guards p.p_guards)
                | None -> false (* primary input: always defined *))
              sources
          in
          (match offender with
          | Some src ->
              Error
                (Printf.sprintf
                   "node %S reads %S, which is only defined on another \
                    branch (guard scoping)"
                   p.p_name src)
          | None -> go rest)
    in
    go ops

  let check_refs inputs arrays ops =
    let known = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace known n ()) inputs;
    List.iter (fun (a : array_decl) -> Hashtbl.replace known a.a_name ()) arrays;
    List.iter (fun p -> Hashtbl.replace known p.p_name ()) ops;
    let rec go = function
      | [] -> Ok ()
      | p :: rest ->
          let missing =
            List.filter (fun a -> not (Hashtbl.mem known a)) p.p_args
            @ List.filter_map
                (fun (c, _) -> if Hashtbl.mem known c then None else Some c)
                p.p_guards
          in
          (match missing with
          | [] -> go rest
          | m :: _ ->
              Error
                (Printf.sprintf "node %S references unknown value %S" p.p_name m))
    in
    go ops

  (* Kahn's algorithm over operand edges; detects cycles. *)
  let topo_ids num_nodes pred_arr succ_arr =
    let indeg = Array.map List.length pred_arr in
    let queue = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
    let order = ref [] in
    let count = ref 0 in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      incr count;
      order := i :: !order;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Queue.add s queue)
        succ_arr.(i)
    done;
    if !count = num_nodes then Ok (List.rev !order) else Error "cycle in DFG"

  (* Annotations may name inputs or nodes; ranges must be non-empty and
     widths representable (1..64 bits — the word itself is 32, wider
     declarations are legal no-ops for forward compatibility). *)
  let check_annotations inputs ops ranges widths =
    let known = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace known n ()) inputs;
    List.iter (fun p -> Hashtbl.replace known p.p_name ()) ops;
    let rec go_r = function
      | [] -> Ok ()
      | (name, (lo, hi)) :: rest ->
          if not (Hashtbl.mem known name) then
            Error (Printf.sprintf "range declared for unknown value %S" name)
          else if lo > hi then
            Error
              (Printf.sprintf "range for %S is empty (%d > %d)" name lo hi)
          else go_r rest
    in
    let rec go_w = function
      | [] -> Ok ()
      | (name, w) :: rest ->
          if not (Hashtbl.mem known name) then
            Error (Printf.sprintf "width declared for unknown value %S" name)
          else if w < 1 || w > 64 then
            Error
              (Printf.sprintf "width for %S out of range (%d bits)" name w)
          else go_w rest
    in
    let* () = go_r ranges in
    go_w widths

  let build b =
    let inputs = List.rev b.rev_inputs in
    let ops = List.rev b.rev_ops in
    let ranges = List.rev b.rev_ranges in
    let widths = List.rev b.rev_widths in
    let arrays = List.rev b.rev_arrays in
    let banks = List.rev b.rev_banks in
    let* () = check_unique inputs arrays ops in
    let* () = check_arities ops in
    let* () = check_mem arrays banks ops in
    let* () = check_refs inputs arrays ops in
    let* () = check_guard_scoping ops in
    let* () = check_annotations inputs ops ranges widths in
    let n = List.length ops in
    let index = Hashtbl.create (2 * n) in
    List.iteri (fun i p -> Hashtbl.replace index p.p_name i) ops;
    let node_arr =
      Array.of_list
        (List.mapi
           (fun i p ->
             { id = i; name = p.p_name; kind = p.p_kind; args = p.p_args;
               guards = p.p_guards })
           ops)
    in
    let pred_arr = Array.make n [] in
    let succ_arr = Array.make n [] in
    Array.iter
      (fun nd ->
        (* Guard conditions are implicit predecessors: the controller must
           know the condition before it can enable the operation. *)
        let ps =
          List.filter_map (fun a -> Hashtbl.find_opt index a) nd.args
          @ List.filter_map (fun (c, _) -> Hashtbl.find_opt index c) nd.guards
        in
        let ps = List.sort_uniq compare ps in
        pred_arr.(nd.id) <- ps;
        List.iter (fun p -> succ_arr.(p) <- nd.id :: succ_arr.(p)) ps)
      node_arr;
    (* Address-dependence edges serialize accesses to one array in program
       order: a load depends on the latest preceding store (read-after-
       write); a store depends on that store (write-after-write) and on
       every load since it (write-after-read). Loads between two stores
       stay unordered, so they can still issue in parallel across ports.
       Program order is definition order, so every edge points forward —
       these edges can never create a cycle. *)
    List.iter
      (fun (a : array_decl) ->
        let last_store = ref None in
        let loads_since = ref [] in
        let add_edge p s =
          if not (List.mem p pred_arr.(s)) then begin
            pred_arr.(s) <- List.sort_uniq compare (p :: pred_arr.(s));
            succ_arr.(p) <- List.sort_uniq compare (s :: succ_arr.(p))
          end
        in
        Array.iter
          (fun nd ->
            match (nd.kind, nd.args) with
            | Op.Load, arr :: _ when String.equal arr a.a_name ->
                Option.iter (fun p -> add_edge p nd.id) !last_store;
                loads_since := nd.id :: !loads_since
            | Op.Store, arr :: _ when String.equal arr a.a_name ->
                Option.iter (fun p -> add_edge p nd.id) !last_store;
                List.iter (fun p -> add_edge p nd.id) !loads_since;
                last_store := Some nd.id;
                loads_since := []
            | _ -> ())
          node_arr)
      arrays;
    let* _order = topo_ids n pred_arr succ_arr in
    Ok
      { node_arr; pred_arr; succ_arr; input_list = inputs; index;
        range_list = ranges; width_list = widths; array_list = arrays;
        bank_list = banks }

  let import_memory b ~from =
    List.iter
      (fun (a : array_decl) ->
        declare_array ~bank:a.a_bank b ~name:a.a_name ~size:a.a_size)
      from.array_list;
    List.iter
      (fun (bk : bank_decl) -> declare_bank b ~name:bk.b_name ~ports:bk.b_ports)
      from.bank_list
end

let of_ops ~inputs rows =
  let b = Builder.create () in
  List.iter (Builder.add_input b) inputs;
  List.iter
    (fun (name, kind, args, guards) -> Builder.add_op ~guards b ~name kind args)
    rows;
  Builder.build b

let num_nodes g = Array.length g.node_arr

let node g i =
  if i < 0 || i >= num_nodes g then
    invalid_arg (Printf.sprintf "Graph.node: id %d out of range" i);
  g.node_arr.(i)

let nodes g = Array.to_list g.node_arr
let find g name = Option.map (fun i -> g.node_arr.(i)) (Hashtbl.find_opt g.index name)
let inputs g = g.input_list
let ranges g = g.range_list
let declared_widths g = g.width_list
let range_of g name = List.assoc_opt name g.range_list
let declared_width g name = List.assoc_opt name g.width_list
let arrays g = g.array_list
let banks g = g.bank_list

let array_of g name =
  List.find_opt (fun a -> String.equal a.a_name name) g.array_list

(* Banks may be declared implicitly by an array's [bank] clause; an
   undeclared bank has one port. *)
let bank_names g =
  List.sort_uniq String.compare
    (List.map (fun (b : bank_decl) -> b.b_name) g.bank_list
    @ List.map (fun a -> a.a_bank) g.array_list)

let bank_ports g name =
  match List.find_opt (fun b -> String.equal b.b_name name) g.bank_list with
  | Some b -> b.b_ports
  | None -> 1

let mem_class bank = "mem:" ^ bank

let is_mem_class c =
  String.length c > 4 && String.equal (String.sub c 0 4) "mem:"

let bank_of_class c = if is_mem_class c then String.sub c 4 (String.length c - 4) else c

(* The bank whose port the access occupies; total on well-formed graphs
   ([Builder.build] guarantees a memory op's first operand is a declared
   array). *)
let node_bank g nd =
  if not (Op.is_mem nd.kind) then None
  else
    match nd.args with
    | arr :: _ -> Option.map (fun a -> a.a_bank) (array_of g arr)
    | [] -> None

let node_class g nd =
  match node_bank g nd with
  | Some bank -> mem_class bank
  | None -> Op.fu_class nd.kind

let copy_annotations ~from g =
  let keep name =
    Hashtbl.mem g.index name || List.mem name g.input_list
  in
  let merge old extra =
    old @ List.filter (fun (n, _) -> not (List.mem_assoc n old)) extra
  in
  {
    g with
    range_list =
      merge g.range_list (List.filter (fun (n, _) -> keep n) from.range_list);
    width_list =
      merge g.width_list (List.filter (fun (n, _) -> keep n) from.width_list);
  }
let preds g i = g.pred_arr.(i)
let succs g i = g.succ_arr.(i)

let topological g =
  match
    Builder.topo_ids (num_nodes g) g.pred_arr g.succ_arr
  with
  | Ok order -> order
  | Error _ -> assert false (* acyclicity established at build time *)

let sinks g =
  List.filter_map
    (fun nd -> if g.succ_arr.(nd.id) = [] then Some nd.id else None)
    (nodes g)

let classes g =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc nd ->
      let c = node_class g nd in
      if Hashtbl.mem seen c then acc
      else begin
        Hashtbl.add seen c ();
        c :: acc
      end)
    [] g.node_arr
  |> List.rev

let count_by_class g =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun nd ->
      let c = node_class g nd in
      let cur = Option.value ~default:0 (Hashtbl.find_opt counts c) in
      Hashtbl.replace counts c (cur + 1))
    g.node_arr;
  List.map (fun c -> (c, Hashtbl.find counts c)) (classes g)

(* Unguarded pairs answer without allocating: the sharing rule asks this
   for every pair it compares. *)
let mutually_exclusive g i j =
  i <> j
  &&
  match ((node g i).guards, (node g j).guards) with
  | [], _ | _, [] -> false
  | gi, gj ->
      List.exists
        (fun (c, arm) ->
          List.exists (fun (c', arm') -> String.equal c c' && arm <> arm') gj)
        gi

let pp ppf g =
  Format.fprintf ppf "@[<v>inputs: %s@,"
    (String.concat " " g.input_list);
  Array.iter
    (fun nd ->
      let guard_s =
        match nd.guards with
        | [] -> ""
        | gs ->
            " @ "
            ^ String.concat ","
                (List.map
                   (fun (c, arm) -> (if arm then "" else "!") ^ c)
                   gs)
      in
      Format.fprintf ppf "%s = %s %s%s@," nd.name
        (Op.to_string nd.kind)
        (String.concat " " nd.args)
        guard_s)
    g.node_arr;
  Format.fprintf ppf "@]"
