//! [`ToJson`] / [`FromJson`] conversions for the std types the workspace
//! serializes: numbers, booleans, strings, `Vec`, `Option`, tuples, and
//! `Range` (serde's `{"start", "end"}` shape).

use crate::value::{Json, JsonError};

/// Conversion into a [`Json`] value (the `Serialize` stand-in).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion out of a [`Json`] value (the `Deserialize` stand-in).
pub trait FromJson: Sized {
    /// Reconstructs the value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, got {}", v.kind())))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new(format!("expected string, got {}", v.kind())))
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(i) => Json::Int(i),
                    // u64 values beyond i64::MAX (never produced by the
                    // workspace's counters, but representable).
                    Err(_) => Json::Float(*self as f64),
                }
            }
        }

        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_i64().ok_or_else(|| {
                    JsonError::new(format!(
                        concat!("expected ", stringify!($ty), ", got {}"),
                        v.kind()
                    ))
                })?;
                <$ty>::try_from(i).map_err(|_| {
                    JsonError::new(format!(
                        concat!("number {} out of range for ", stringify!($ty)),
                        i
                    ))
                })
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, got {}", v.kind())))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        // Widening to f64 is exact, so the shortest-f64 text re-parses to
        // the identical f32.
        Json::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new(format!("expected array, got {}", v.kind())))?
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_json(item).map_err(|e| e.in_context(&format!("index {i}")))
            })
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for std::ops::Range<T> {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("start".to_string(), self.start.to_json()),
            ("end".to_string(), self.end.to_json()),
        ])
    }
}

impl<T: FromJson> FromJson for std::ops::Range<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| JsonError::new(format!("Range: missing field `{name}`")))
                .and_then(T::from_json)
        };
        Ok(field("start")?..field("end")?)
    }
}

macro_rules! impl_json_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }

        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let items = v
                    .as_array()
                    .ok_or_else(|| JsonError::new(format!("expected array, got {}", v.kind())))?;
                let arity = [$($idx),+].len();
                if items.len() != arity {
                    return Err(JsonError::new(format!(
                        "expected {arity}-tuple, got array of {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_json(&items[$idx])
                    .map_err(|e| e.in_context(&format!("tuple index {}", $idx)))?,)+))
            }
        }
    )*};
}

impl_json_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

#[cfg(test)]
mod tests {
    use crate::{from_str, to_string};

    #[test]
    fn primitive_round_trips() {
        assert_eq!(from_str::<u64>(&to_string(&u64::from(u32::MAX))).unwrap(), u64::from(u32::MAX));
        assert_eq!(from_str::<i64>(&to_string(&-42i64)).unwrap(), -42);
        assert_eq!(from_str::<f32>(&to_string(&0.1f32)).unwrap(), 0.1f32);
        assert_eq!(from_str::<f64>(&to_string(&0.1f64)).unwrap(), 0.1f64);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"x\"").unwrap(), "x");
    }

    #[test]
    fn out_of_range_integer_rejected() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<usize>("-1").is_err());
        assert!(from_str::<u32>("1.5").is_err());
    }

    #[test]
    fn integral_float_accepted_as_integer() {
        // serde_json is stricter here, but the workspace's own writer may
        // emit u64 counters it read back as floats; accept exact values.
        assert_eq!(from_str::<u32>("3.0").unwrap(), 3);
    }

    #[test]
    fn vec_option_tuple_round_trips() {
        let v: Vec<(String, f64, usize)> = vec![("a".into(), 1.5, 2), ("b".into(), -0.25, 9)];
        assert_eq!(from_str::<Vec<(String, f64, usize)>>(&to_string(&v)).unwrap(), v);
        let o: Option<Vec<u8>> = Some(vec![1, 2, 3]);
        assert_eq!(from_str::<Option<Vec<u8>>>(&to_string(&o)).unwrap(), o);
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    }

    #[test]
    fn range_uses_serde_shape() {
        let r = 3u32..17;
        assert_eq!(to_string(&r), r#"{"start":3,"end":17}"#);
        assert_eq!(from_str::<std::ops::Range<u32>>(&to_string(&r)).unwrap(), r);
    }

    #[test]
    fn tuple_arity_mismatch_rejected() {
        assert!(from_str::<(u8, u8)>("[1,2,3]").is_err());
        assert!(from_str::<(u8, u8)>("[1]").is_err());
    }
}
