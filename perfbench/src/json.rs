//! Just enough JSON: string quoting for the files the benchmark writes,
//! and a small parser its tests use to read `BENCHMARK.json` and the
//! printed result line back.

/// `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
pub use parser::{parse, Json};

#[cfg(test)]
mod parser {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => {
                    &fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no {key}"))
                        .1
                }
                other => panic!("{other:?} is not an object"),
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("{other:?} is not an object"),
            }
        }

        pub fn as_array(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                other => panic!("{other:?} is not an array"),
            }
        }

        pub fn as_str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("{other:?} is not a string"),
            }
        }

        pub fn as_f64(&self) -> f64 {
            match self {
                Json::Num(v) => *v,
                other => panic!("{other:?} is not a number"),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }

    struct Parser<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
                self.at += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            self.ws();
            if self.s.get(self.at) == Some(&b) {
                self.at += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.at))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.at) {
                Some(b'{') => {
                    self.at += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value()?));
                        self.ws();
                        match self.s.get(self.at) {
                            Some(b',') => self.at += 1,
                            Some(b'}') => {
                                self.at += 1;
                                return Ok(Json::Obj(fields));
                            }
                            _ => return Err(format!("bad object at byte {}", self.at)),
                        }
                    }
                }
                Some(b'[') => {
                    self.at += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.ws();
                        match self.s.get(self.at) {
                            Some(b',') => self.at += 1,
                            Some(b']') => {
                                self.at += 1;
                                return Ok(Json::Arr(items));
                            }
                            _ => return Err(format!("bad array at byte {}", self.at)),
                        }
                    }
                }
                Some(b'"') => self.string().map(Json::Str),
                Some(b't') => self.word("true", Json::Bool(true)),
                Some(b'f') => self.word("false", Json::Bool(false)),
                Some(b'n') => self.word("null", Json::Null),
                _ => self.number(),
            }
        }

        fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
            if self.s[self.at..].starts_with(w.as_bytes()) {
                self.at += w.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.at))
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.at;
            while self
                .s
                .get(self.at)
                .is_some_and(|b| b"+-.eE0123456789".contains(b))
            {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
            text.parse()
                .map(Json::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            if self.s.get(self.at) != Some(&b'"') {
                return Err(format!("expected a string at byte {}", self.at));
            }
            self.at += 1;
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.s[self.at..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                self.at += c.len_utf8();
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let e = self.s.get(self.at).copied().ok_or("unterminated escape")?;
                        self.at += 1;
                        match e {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.at..self.at + 4])
                                    .map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                                self.at += 4;
                            }
                            other => out.push(other as char),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
    }

    #[test]
    fn round_trips_quoted_strings_and_nested_values() {
        let text = format!(
            "{{\"a\": [1, -2.5e3, true, null], \"b\": {{}}, \"c\": {}}}",
            super::quote("x \"y\"\n\\z")
        );
        let v = parse(&text).unwrap();
        assert_eq!(v.keys(), vec!["a", "b", "c"]);
        assert_eq!(v.get("a").as_array()[1].as_f64(), -2500.0);
        assert_eq!(v.get("c").as_str(), "x \"y\"\n\\z");
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1] 2").is_err());
    }
}
