//! Fixture: a parser with its own `fn expect(..) -> Result`. Calling it
//! is not `Option::expect`; an `unwrap` in the same file still is.
impl Parser {
    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.bump() == Some(want) { Ok(()) } else { Err(format!("expected {want}")) }
    }

    fn block(&mut self) -> Result<u8, String> {
        self.expect(b'{')?; // own method: silent
        Ok(self.peeked.unwrap()) // A2-fires
    }
}
