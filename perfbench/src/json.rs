//! A flat JSON object writer (the vendored `serde_json` has no `Value`).

#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((key.to_string(), v));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.to_string(), v.to_string()));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped: String = v
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if (c as u32) < 0x20 => vec![' '],
                c => vec![c],
            })
            .collect();
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }
}

impl std::fmt::Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "\"{k}\": {v}")?;
        }
        write!(f, "}}")
    }
}
