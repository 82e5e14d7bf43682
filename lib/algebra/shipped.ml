let ruleset text =
  (* parsed once, on first use; a race between domains only parses twice *)
  let spec = Atomic.make None in
  fun catalog ->
    let parsed =
      match Atomic.get spec with
      | Some s -> s
      | None ->
        let s = Prairie_dsl.Parser.parse text in
        Atomic.set spec (Some s);
        s
    in
    Prairie_dsl.Elaborate.elaborate ~helpers:(Helpers.env catalog) parsed
