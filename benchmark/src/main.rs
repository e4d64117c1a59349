fn main() {
    janus_ledger::cli::main()
}
